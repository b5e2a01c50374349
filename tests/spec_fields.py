"""Parse an ExperimentSpec given field by field on a command line, as
FIELD=VALUE words (tests/output_digest.py and tests/replay_rss.py --spec)."""

from dataclasses import fields

from sparsefft import Tunables

_TUNABLE_NAMES = frozenset(f.name for f in fields(Tunables))


def parse_spec(items) -> dict:
    """The spec fields of the FIELD=VALUE words, each value read as an int,
    a float or a string, in that order. A `Tunables` name is filed under
    `constants`."""
    spec, constants = {}, {}
    for key, value in map(_field, items):
        (constants if key in _TUNABLE_NAMES else spec)[key] = value
    if constants:
        spec["constants"] = constants
    return spec


def _field(item: str):
    key, _, text = item.partition("=")
    for kind in (int, float):
        try:
            return key, kind(text)
        except ValueError:
            pass
    return key, text
