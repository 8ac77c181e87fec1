"""Stand-in for the retired struct-of-arrays IR arena.

The object walk is the only IR analysis path.  The end-to-end benchmark
still records a backend name and arena counters per run; this keeps both
at their retired values until that benchmark drops them.
"""


def backend() -> str:
    return "legacy"


class _Store:
    def counters(self) -> dict:
        return {"encodes": 0, "view_hits": 0, "column_bytes": 0}


STORE = _Store()
