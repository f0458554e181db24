"""Event-tier fixture: same streams as the fused tier, one drawn through
the ``get`` API form."""


def train(rngs, steps):
    noise = rngs.get("encoding").random(steps)
    jitter = rngs.learning.random(steps)
    return noise, jitter
