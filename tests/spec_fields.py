"""Parse an ExperimentSpec given field by field on a command line, as
FIELD=VALUE words (tests/output_digest.py and tests/replay_rss.py --spec)."""


def parse_spec(items) -> dict:
    """The spec fields of the FIELD=VALUE words, each value read as an int,
    a float or a string, in that order."""
    return dict(_field(item) for item in items)


def _field(item: str):
    key, _, text = item.partition("=")
    for kind in (int, float):
        try:
            return key, kind(text)
        except ValueError:
            pass
    return key, text
