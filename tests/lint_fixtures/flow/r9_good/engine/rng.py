"""R9 good-fixture manifest: every declaration matches the corpus.

Every consumer is declared and actually draws, and the one dead stream
carries a RESERVED_STREAMS justification.
"""

STREAM_NAMES = ("encoding", "learning", "spare")

STREAM_CONSUMERS = {
    "encoding": ("engine/fused.py", "engine/event.py"),
    "learning": ("engine/fused.py", "engine/event.py"),
}

RESERVED_STREAMS = {
    "spare": "reserved for future tooling; spawn-prefix stability forbids removal",
}
