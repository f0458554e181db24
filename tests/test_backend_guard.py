"""Tests for the guard device-discipline backend (:mod:`repro.backend.guard`)."""

import numpy as np
import pytest

import repro.backend as backend
from repro.backend import guard
from repro.engine.rng import DeviceRng, RngStreams, on_backend
from repro.errors import BackendError


@pytest.fixture(autouse=True)
def _clean_counters():
    guard.reset_counters()
    yield
    guard.reset_counters()


def _dev(values):
    return guard.to_device(np.asarray(values))


class TestMixingViolations:
    def test_ufunc_host_operand_raises(self):
        dev = _dev([1.0, 2.0])
        with pytest.raises(BackendError, match="implicit host/device mixing"):
            dev + np.ones(2)

    def test_ufunc_host_out_raises(self):
        dev = _dev([1.0, 2.0])
        host_out = np.empty(2)
        with pytest.raises(BackendError):
            np.multiply(dev, 2.0, out=host_out)

    def test_ufunc_host_where_mask_raises(self):
        dev = _dev([1.0, 2.0])
        with pytest.raises(BackendError):
            np.add(dev, 1.0, where=np.array([True, False]), out=dev)

    def test_array_function_host_operand_raises(self):
        dev = _dev([[1.0], [2.0]])
        with pytest.raises(BackendError):
            np.concatenate([dev, np.zeros((1, 1))])

    def test_violations_are_counted(self):
        dev = _dev([1.0])
        for _ in range(3):
            with pytest.raises(BackendError):
                dev * np.ones(1)
        assert guard.transfer_stats().violations == 3

    def test_scalars_and_zero_d_hosts_are_allowed(self):
        dev = _dev([1.0, 2.0])
        out = dev * 2.0 + np.float64(1.0) - np.asarray(0.5)
        assert isinstance(out, guard.GuardArray)
        np.testing.assert_allclose(guard.asnumpy(out), [2.5, 4.5])
        assert guard.transfer_stats().violations == 0

    def test_device_device_operations_are_clean(self):
        a, b = _dev([1.0, 2.0]), _dev([3.0, 4.0])
        c = a @ b
        d = np.where(a > 1.5, a, b)
        assert float(c) == 11.0
        assert isinstance(d, guard.GuardArray)
        assert guard.transfer_stats().violations == 0


class TestTransferAccounting:
    def test_to_device_counts_and_detaches(self):
        host = np.arange(3.0)
        dev = guard.to_device(host)
        assert guard.transfer_stats().h2d == 1
        host[0] = 99.0
        assert float(guard.asnumpy(dev)[0]) == 0.0

    def test_asnumpy_counts_and_detaches(self):
        dev = _dev([1.0, 2.0])
        guard.reset_counters()
        host = guard.asnumpy(dev)
        assert guard.transfer_stats().d2h == 1
        host[0] = 99.0
        assert float(guard.asnumpy(dev)[0]) == 1.0

    def test_asnumpy_of_host_input_is_not_counted(self):
        guard.asnumpy(np.arange(3.0))
        assert guard.transfer_stats().d2h == 0

    def test_creation_counts_allocations(self):
        guard.empty((2, 2))
        guard.zeros(3)
        guard.full(4, 1.5)
        guard.arange(5)
        stats = guard.transfer_stats()
        assert stats.allocations == 4
        assert stats.h2d == 0

    def test_asarray_of_host_array_counts_upload(self):
        guard.asarray(np.ones(3))
        stats = guard.transfer_stats()
        assert stats.h2d == 1

    def test_asarray_of_list_counts_allocation(self):
        guard.asarray([1.0, 2.0])
        stats = guard.transfer_stats()
        assert stats.allocations == 1
        assert stats.h2d == 0

    def test_asarray_keeps_device_residency(self):
        dev = _dev([1.0])
        again = guard.asarray(dev)
        assert isinstance(again, guard.GuardArray)

    def test_host_index_arrays_count_uploads(self):
        dev = _dev(np.arange(10.0))
        guard.reset_counters()
        dev[np.array([1, 3])]
        dev[np.array([0, 2])] = np.array([9.0, 9.0])  # index + value uploads
        assert guard.transfer_stats().h2d == 3

    def test_device_index_arrays_are_free(self):
        dev = _dev(np.arange(10.0))
        idx = _dev(np.array([1, 3]))
        guard.reset_counters()
        out = dev[idx]
        assert isinstance(out, guard.GuardArray)
        assert guard.transfer_stats().h2d == 0

    def test_reset_counters(self):
        _dev([1.0])
        guard.reset_counters()
        stats = guard.transfer_stats()
        assert stats.as_dict() == {
            "h2d": 0, "d2h": 0, "allocations": 0, "violations": 0,
        }


class TestNumericsMatchNumpy:
    def test_inplace_ufunc_chain_matches(self):
        rng = np.random.default_rng(3)
        host = rng.random((4, 5))
        dev = guard.to_device(host)
        np.multiply(host, 0.5, out=host)
        np.multiply(dev, 0.5, out=dev)
        np.maximum(host, 0.2, out=host)
        np.maximum(dev, 0.2, out=dev)
        assert np.array_equal(host, guard.asnumpy(dev))

    def test_matmul_bit_identical(self):
        rng = np.random.default_rng(5)
        v, m = rng.random(6), rng.random((6, 7))
        assert np.array_equal(v @ m, guard.asnumpy(guard.to_device(v) @ guard.to_device(m)))

    def test_reductions_match(self):
        host = np.arange(12.0).reshape(3, 4)
        dev = guard.to_device(host)
        assert float(dev.sum()) == float(host.sum())
        assert bool((dev > 5).any()) == bool((host > 5).any())
        assert int(np.count_nonzero(dev > 5)) == int(np.count_nonzero(host > 5))


class TestDeviceRng:
    def test_draws_bit_identical_to_host_stream(self):
        ops = backend.backend_ops("guard")
        host_stream = RngStreams(11).encoding
        dev_stream = on_backend(RngStreams(11).encoding, ops)
        assert isinstance(dev_stream, DeviceRng)
        a = host_stream.random((7, 3))
        b = dev_stream.random((7, 3))
        assert isinstance(b, guard.GuardArray)
        assert np.array_equal(a, guard.asnumpy(b))

    def test_host_ops_returns_raw_generator(self):
        stream = RngStreams(11).encoding
        assert on_backend(stream, backend.backend_ops("numpy")) is stream
        assert on_backend(stream, None) is stream

    def test_scalar_draw_stays_on_host(self):
        ops = backend.backend_ops("guard")
        value = on_backend(RngStreams(1).misc, ops).random()
        assert isinstance(value, float)

    def test_batched_eval_adapts(self):
        ops = backend.backend_ops("guard")
        streams = RngStreams(4)
        host = streams.batched_eval().random((3, 2))
        dev = streams.batched_eval(ops).random((3, 2))
        assert np.array_equal(host, guard.asnumpy(dev))
