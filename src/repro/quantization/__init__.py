"""Fixed-point arithmetic for low-precision learning (Section III-C).

- :mod:`repro.quantization.qformat` — Q-format descriptors (``Q1.7`` etc.):
  representable range, resolution, grid snapping.
- :mod:`repro.quantization.rounding` — the three rounding options: bit
  truncation, round-to-nearest and stochastic rounding (eq. 8).
- :mod:`repro.quantization.quantizer` — :class:`Quantizer`, the object the
  learning module uses: it owns a format + rounding mode, exposes the
  per-event ``delta_g`` (the fixed ``1/2^n`` LSB for <= 8 total bits) and
  quantises conductance arrays in place, :data:`ENCODE_BLOCK_ROWS` rows at
  a time.
- :mod:`repro.quantization.codec` — :class:`QCodec`, the integer code-domain
  view of a format for the ``qfused`` engine tier: uint8/uint16 storage,
  exact encode/decode scale factors and eq.-8 rounding fused into integer
  code increments.
"""

from repro.quantization.codec import MAX_CODE_BITS, QCodec, code_dtype, codec_for
from repro.quantization.qformat import QFormat, parse_qformat
from repro.quantization.rounding import (
    round_nearest,
    round_stochastic,
    round_truncate,
    stochastic_round_up_probability,
)
from repro.quantization.quantizer import (
    ENCODE_BLOCK_ROWS,
    FloatQuantizer,
    Quantizer,
    make_quantizer,
)

__all__ = [
    "ENCODE_BLOCK_ROWS",
    "MAX_CODE_BITS",
    "QCodec",
    "QFormat",
    "code_dtype",
    "codec_for",
    "parse_qformat",
    "round_nearest",
    "round_stochastic",
    "round_truncate",
    "stochastic_round_up_probability",
    "FloatQuantizer",
    "Quantizer",
    "make_quantizer",
]
