"""Test-side readings of a ``QCharacter``: thinness, and the character
read back from its JSON form."""

from qchar.expansion import QCharacter
from qchar.monomials import monomial_from_json


def qchar_is_thin(chi: QCharacter) -> bool:
    """True iff every multiplicity equals 1."""
    return all(t == 1 for t in chi.terms.values())


def qchar_from_json(data) -> QCharacter:
    """The character of a ``qchar`` document's ``"qchar"`` object, as
    ``cli._json_text`` writes a ``QCharacter``'s ``_doc()``."""
    terms = {}
    for entry in data["terms"]:
        m = monomial_from_json(entry["monomial"])
        terms[m] = terms.get(m, 0) + int(entry["multiplicity"])
    h = data.get("highest")
    return QCharacter(terms, highest=None if h is None else monomial_from_json(h))
