"""Output checks for benchmark ops, run outside the timed region.

``summary`` reduces one op's JSON output to the fields pinned by the golden
file, shifted back to base power r = 0; ``problems`` compares them with the
golden and adds the checks that need the library:

* sweep: the empirical verdict equals ``classify``, and every NotSpecial
  chain replays step by step through ``expand_Li``;
* closure: the verdict is SpecialFMConsistent;
* enumerate: the exit code matches the ``partial`` flag;
* affine: exit code 4, and never a definite verdict that disagrees with
  the closed form.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from qchar import classify, divide_as_a_product, expand_Li, parse_diagram
from qchar.monomials import format_monomial, monomial_from_json

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"

EXIT_CODES = {"sweep": (0, 4), "closure": (0,), "affine": (4,)}


def load_golden() -> dict:
    with open(GOLDEN_PATH) as f:
        return json.load(f)


def _digest(rows) -> str:
    blob = json.dumps(sorted(rows), separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _shifted(entries, r, value_key):
    return [[e["node"], e["power"] - r, e[value_key]] for e in entries]


def _entries_digest(entries, r) -> str:
    """Digest of (monomial, witness table) entries at base power 0."""
    return _digest([[_shifted(e["monomial"], r, "exponent"),
                     _shifted(e["witness_table"], r, "count")] for e in entries])


def summary(workload: str, doc: dict, r: int) -> dict:
    """The golden-pinned fields of one op's output, at base power 0."""
    if workload == "sweep":
        emp = doc["empirical"]
        return {"dominant_count": emp["dominant_count"],
                "dominant": _entries_digest(emp["dominant"], r)}
    if workload == "closure":
        terms = doc["qchar"]["terms"]
        return {"terms": len(terms),
                "qchar": _digest([[_shifted(t["monomial"], r, "exponent"),
                                   t["multiplicity"]] for t in terms])}
    if workload == "enumerate":
        return {"count": doc["count"], "partial": doc["partial"],
                "entries": _entries_digest(doc["entries"], r)}
    return {}


def _replay_chains(c, emp) -> list:
    """Problems with the NotSpecial certificates of one sweep cell."""
    bad = []
    dominant = {monomial_from_json(e["monomial"]) for e in emp["dominant"]}
    if emp["verdict"] == "NotSmall" and not emp["witnesses"]:
        bad.append("NotSmall without a witness")
    cache = {}
    for w in emp["witnesses"]:
        m = monomial_from_json(w["monomial"])
        witness = monomial_from_json(w["witness"])
        if m not in dominant:
            bad.append(f"witnessed monomial {format_monomial(m)} not enumerated")
        cur = m
        for n, step in enumerate(w["chain"]):
            root = monomial_from_json(step["root"])
            result = monomial_from_json(step["result"])
            node = step["node"]
            ok = root == cur and root.is_dominant([node])
            if ok:
                key = (root, node)
                if key not in cache:
                    cache[key] = expand_Li(c, root, node)
                ok = result in cache[key]
            if not ok:
                bad.append(f"chain step {n} below {format_monomial(m)} does not replay")
                break
            cur = result
        else:
            if (cur != witness or witness == m or not witness.is_dominant()
                    or divide_as_a_product(c, witness, m) is None):
                bad.append(f"chain below {format_monomial(m)} does not end at "
                           "a dominant witness under it")
    return bad


def problems(workload: str, op, rc, text: str, r: int, golden: dict) -> list:
    """Everything wrong with one op's exit code and output (empty if none)."""
    try:
        doc = json.loads(text)
    except ValueError:
        return [f"exit code {rc}, output is not JSON"]
    expected = golden[op.id]
    codes = EXIT_CODES.get(workload) or ((4,) if expected["partial"] else (0,))
    bad = [] if rc in codes else [f"exit code {rc}, expected one of {codes}"]
    got = summary(workload, doc, r)
    bad += [f"{key}: {got[key]!r} differs from the golden {want!r}"
            for key, want in expected.items() if got[key] != want]
    if workload in ("sweep", "affine"):
        c = parse_diagram(op.diagram)
        verdict = doc["empirical"]["verdict"]
        theory = classify(c, op.node, op.k)
        allowed = (theory,) if workload == "sweep" else (theory, "Undetermined")
        if verdict not in allowed:
            bad.append(f"empirical verdict {verdict}, closed form {theory}")
        if workload == "sweep":
            bad += _replay_chains(c, doc["empirical"])
    elif workload == "closure" and doc["verdict"] != "SpecialFMConsistent":
        bad.append(f"verdict {doc['verdict']}, expected SpecialFMConsistent")
    return bad
