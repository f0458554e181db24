"""W0 fixture: a pragma that suppresses nothing under the full rule set."""


def helper(values):
    return list(values)  # lint-ok: R5
