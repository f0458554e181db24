"""R9 bad-fixture manifest (parsed from the AST, never imported).

The corpus around it is engineered so all five R9 check categories fire:
an unknown stream, an undeclared consumer, an unmapped drawn stream, a
silent declared consumer and an unreserved dead stream.
"""

STREAM_NAMES = ("encoding", "learning", "retired", "spare")

STREAM_CONSUMERS = {
    "encoding": ("engine/fused.py", "engine/event.py", "engine/encoder.py"),
    "learning": ("engine/event.py",),
}

RESERVED_STREAMS = {}
