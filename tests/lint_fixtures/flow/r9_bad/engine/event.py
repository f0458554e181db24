"""Event-tier fixture: an unmapped draw.

``retired`` is a known stream without any STREAM_CONSUMERS entry; the
other two draws are declared.
"""


def train(rngs, steps, active):
    noise = None
    if active:
        noise = rngs.encoding.random(steps)
    extra = rngs.learning.random(steps)
    old = rngs.get("retired").random(steps)
    return noise, extra, old
