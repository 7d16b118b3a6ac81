"""Versioned JSON documents for machines and branch scenarios.

One structured-text format serves all file exchange: a top-level
``format_version`` field, complex numbers as two-element ``[re, im]``
arrays, and nothing that depends on locale or dict ordering.  Dumping a
loaded document reproduces it byte for byte.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import asdict, dataclass
from typing import Tuple

from .ancilla import AncillaPolicy, BranchSpec, PolicyError
from .hilbert import sum_of_squares
from .qtm import DENSE_DIMENSION_CAP, MachineDims, MachineError, TransitionTable, rule_keys

__all__ = [
    "FORMAT_VERSION",
    "MAX_T_MAX",
    "MAX_TRACE_LABELS",
    "DocumentError",
    "ScenarioDef",
    "load_machine",
    "loads_machine",
    "machine_to_doc",
    "dumps_machine",
    "load_scenario",
    "loads_scenario",
    "scenario_to_doc",
    "dumps_scenario",
    "dumps_document",
]

FORMAT_VERSION = 1

#: accepted slack on sum |amp|^2 at load time; amplitudes are renormalized
#: exactly afterwards
AMP_NORM_TOL = 1e-9

#: largest ``t_max`` a scenario may ask for: the trace keeps every step's
#: state, so an unbounded step count would grow memory without limit
MAX_T_MAX = 10_000

#: largest trace a scenario may ask for, in composite labels: branches
#: times (t_max + 1).  The trace keeps one label and one state entry per
#: branch and step, whatever the document's size: ``interfere`` on a
#: 17-KB document of 100 branches at MAX_T_MAX, this cap, peaks at
#: 232 MiB resident (CPython 3.11), about 140 B per label beyond the
#: interpreter's own
MAX_TRACE_LABELS = 100 * (MAX_T_MAX + 1)


class DocumentError(ValueError):
    """Malformed document; ``location`` points at the offending field."""

    def __init__(self, location: str, message: str):
        super().__init__(f"{location}: {message}")
        self.location = location


def _need(obj: dict, key: str, path: str):
    if not isinstance(obj, dict):
        raise DocumentError(path, f"expected an object, got {type(obj).__name__}")
    if key not in obj:
        raise DocumentError(path, f"missing field {key!r}")
    return obj[key]


def _int_field(
    obj: dict, key: str, path: str, minimum: int | None = None, maximum: int | None = None
) -> int:
    val = _need(obj, key, path)
    if not isinstance(val, int) or isinstance(val, bool):
        raise DocumentError(f"{path}.{key}", f"expected an integer, got {val!r}")
    if minimum is not None and val < minimum:
        raise DocumentError(f"{path}.{key}", f"must be >= {minimum}, got {val}")
    if maximum is not None and val > maximum:
        raise DocumentError(f"{path}.{key}", f"must be <= {maximum}, got {val}")
    return val


def _complex_field(val, path: str) -> complex:
    if (
        not isinstance(val, list)
        or len(val) != 2
        or any(isinstance(x, bool) or not isinstance(x, (int, float)) for x in val)
    ):
        raise DocumentError(path, f"expected [re, im], got {val!r}")
    try:
        z = complex(float(val[0]), float(val[1]))
    except OverflowError:  # an integer beyond the float range
        raise DocumentError(path, "amplitude must be finite") from None
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise DocumentError(path, "amplitude must be finite")
    return z


def _check_version(doc: dict, path: str = "document"):
    version = _need(doc, "format_version", path)
    if version != FORMAT_VERSION:
        raise DocumentError(
            f"{path}.format_version", f"expected {FORMAT_VERSION}, got {version!r}"
        )


def _parse_json(text: str) -> dict:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"line {exc.lineno}, column {exc.colno}", exc.msg) from None
    except ValueError as exc:  # e.g. an integer literal past Python's digit limit
        raise DocumentError("document", str(exc)) from None
    if not isinstance(doc, dict):
        raise DocumentError("document", "top level must be an object")
    return doc


# ---------------------------------------------------------------------------
# machine documents
# ---------------------------------------------------------------------------

def loads_machine(text: str) -> TransitionTable:
    doc = _parse_json(text)
    _check_version(doc)
    dims_obj = _need(doc, "dims", "document")
    dims = MachineDims(*(_int_field(dims_obj, name, "dims", 1) for name in ("M", "S", "N")))
    rules_obj = _need(doc, "rules", "document")
    if not isinstance(rules_obj, list):
        raise DocumentError("rules", "expected a list")

    rules = {}
    for ri, rule in enumerate(rules_obj):
        path = f"rules[{ri}]"
        q = _int_field(rule, "q", path, 0)
        sym = _int_field(rule, "sym", path, 0)
        halt = _int_field(rule, "halt", path, 0)
        if q >= dims.M or sym >= dims.S or halt > 1:
            raise DocumentError(path, f"key ({q}, {sym}, {halt}) outside dims")
        if (q, sym, halt) in rules:
            raise DocumentError(path, f"duplicate rule key ({q}, {sym}, {halt})")
        out = _need(rule, "out", path)
        if not isinstance(out, list):
            raise DocumentError(f"{path}.out", "expected a list")
        outcomes = []
        for oi, entry in enumerate(out):
            opath = f"{path}.out[{oi}]"
            q2 = _int_field(entry, "q2", opath, 0)
            sym2 = _int_field(entry, "sym2", opath, 0)
            move = _int_field(entry, "move", opath)
            halt2 = _int_field(entry, "halt2", opath, 0)
            amp = _complex_field(_need(entry, "amp", opath), f"{opath}.amp")
            if move not in (-1, 1):
                raise DocumentError(f"{opath}.move", f"must be -1 or 1, got {move}")
            if q2 >= dims.M or sym2 >= dims.S or halt2 > 1:
                raise DocumentError(opath, "outcome target outside dims")
            outcomes.append((q2, sym2, move, halt2, amp))
        rules[(q, sym, halt)] = outcomes
    if len(rules) < 2 * dims.M * dims.S:
        # named here, before the table lists all 2*M*S keys, which a
        # document with huge dims could not afford
        missing = (key for key in rule_keys(dims) if key not in rules)
        raise DocumentError("rules", f"missing rule keys: {list(itertools.islice(missing, 4))}")
    if dims.table_shape[0] > DENSE_DIMENSION_CAP:
        # D >= 2*M*S, so this operator is past the dense cap too: refused
        # before the table tensor, which such dims may not afford
        dims.require_dense()

    try:
        return TransitionTable(dims, rules)
    except MachineError as exc:
        raise DocumentError("rules", str(exc)) from None


def _read_text(path) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return handle.read()
        except UnicodeDecodeError as exc:
            reason = f"not UTF-8 text: {exc.reason} at byte {exc.start}"
            raise DocumentError("document", reason) from None


def load_machine(path) -> TransitionTable:
    return loads_machine(_read_text(path))


def machine_to_doc(table: TransitionTable) -> dict:
    listed = table.rules  # rebuilt on each access
    rules = []
    for key in sorted(listed):
        q, sym, halt = key
        out = [
            {
                "q2": q2,
                "sym2": s2,
                "move": move,
                "halt2": h2,
                "amp": [float(amp.real), float(amp.imag)],
            }
            for q2, s2, move, h2, amp in listed[key]
        ]
        rules.append({"q": q, "sym": sym, "halt": halt, "out": out})
    return {
        "format_version": FORMAT_VERSION,
        "dims": asdict(table.dims),
        "rules": rules,
    }


def dumps_document(doc: dict) -> str:
    return json.dumps(doc, indent=2) + "\n"


def dumps_machine(table: TransitionTable) -> str:
    return dumps_document(machine_to_doc(table))


# ---------------------------------------------------------------------------
# scenario documents
# ---------------------------------------------------------------------------

#: document field holding each policy kind's per-branch maps
_MAP_FIELDS = {
    AncillaPolicy.SHARED: None,
    AncillaPolicy.PERMUTED: "permutations",
    AncillaPolicy.CUSTOM: "maps",
}


@dataclass(frozen=True)
class ScenarioDef:
    """A loaded branch scenario, ready to run."""

    branches: Tuple[BranchSpec, ...]
    amps: Tuple[complex, ...]
    policy: AncillaPolicy
    t_max: int


def _index_key(key: str, path: str, what: str) -> int:
    """Integer written as a policy object key.  Only the canonical decimal
    form ``str(int(key))`` is taken, so no two keys name one integer."""
    try:
        value = int(key)
    except ValueError:
        value = None
    if value is None or str(value) != key:
        raise DocumentError(path, f"{what} key {key!r} is not a canonical decimal integer")
    return value


def _parse_index_map(obj, path: str) -> dict:
    if not isinstance(obj, dict):
        raise DocumentError(path, "expected an object of index -> index")
    mapping = {}
    for key, val in obj.items():
        k = _index_key(key, path, "offset")
        if isinstance(val, bool) or not isinstance(val, int):
            raise DocumentError(path, f"non-integer index {val!r}")
        mapping[k] = val
    return mapping


def _parse_policy_maps(obj, path: str) -> dict:
    """Branch id -> index map, for the permuted and custom policies."""
    if not isinstance(obj, dict):
        raise DocumentError(path, "expected an object")
    maps = {}
    for key, val in obj.items():
        bid = _index_key(key, path, "branch id")
        maps[bid] = _parse_index_map(val, f"{path}[{key}]")
    return maps


def loads_scenario(text: str) -> ScenarioDef:
    doc = _parse_json(text)
    _check_version(doc)

    branches_obj = _need(doc, "branches", "document")
    if not isinstance(branches_obj, list) or not branches_obj:
        raise DocumentError("branches", "expected a non-empty list")
    branches = []
    label_types = set()
    for bi, entry in enumerate(branches_obj):
        path = f"branches[{bi}]"
        bid = _int_field(entry, "id", path)
        orbit = _need(entry, "orbit", path)
        if not isinstance(orbit, list):
            raise DocumentError(f"{path}.orbit", "expected a list of labels")
        for label in orbit:
            if isinstance(label, bool) or not isinstance(label, (str, int)):
                raise DocumentError(f"{path}.orbit", f"label {label!r} must be string or integer")
            label_types.add(type(label))
        halt_step = _int_field(entry, "halt_step", path, 0)
        post = entry.get("post_halt_label")
        if post is not None:
            if isinstance(post, bool) or not isinstance(post, (str, int)):
                raise DocumentError(f"{path}.post_halt_label", "must be string or integer")
            label_types.add(type(post))
        try:
            branches.append(
                BranchSpec(id=bid, orbit=tuple(orbit), halt_step=halt_step, post_halt_label=post)
            )
        except ValueError as exc:
            raise DocumentError(path, str(exc)) from None
    if len(label_types) > 1:
        raise DocumentError("branches", "orbit labels must all be strings or all integers")

    amps_obj = _need(doc, "amps", "document")
    if not isinstance(amps_obj, list) or len(amps_obj) != len(branches):
        raise DocumentError("amps", f"expected {len(branches)} amplitude pairs")
    amps = [_complex_field(a, f"amps[{ai}]") for ai, a in enumerate(amps_obj)]
    total = sum_of_squares(amps)
    if abs(total - 1.0) > AMP_NORM_TOL:
        raise DocumentError("amps", f"sum |amp|^2 = {total!r}, outside 1 +- {AMP_NORM_TOL}")
    if abs(total - 1.0) > 1e-13:
        # renormalize exactly; inputs already normalized to float dust are
        # left untouched so that dump(load(x)) is idempotent
        scale = 1.0 / math.sqrt(total)
        amps = [a * scale for a in amps]
    amps = tuple(amps)

    policy_obj = _need(doc, "policy", "document")
    kind = _need(policy_obj, "kind", "policy")
    if not isinstance(kind, str) or kind not in _MAP_FIELDS:
        raise DocumentError("policy.kind", f"unknown kind {kind!r}")
    name = _MAP_FIELDS[kind]
    try:
        maps = name and _parse_policy_maps(_need(policy_obj, name, "policy"), f"policy.{name}")
        policy = AncillaPolicy(kind, maps)
    except PolicyError as exc:
        raise DocumentError("policy", str(exc)) from None

    t_max = _int_field(doc, "t_max", "document", 0, MAX_T_MAX)
    labels = len(branches) * (t_max + 1)
    if labels > MAX_TRACE_LABELS:
        raise DocumentError(
            "document",
            f"{len(branches)} branches over {t_max + 1} steps make {labels} composite "
            f"labels, more than {MAX_TRACE_LABELS}",
        )
    return ScenarioDef(branches=tuple(branches), amps=amps, policy=policy, t_max=t_max)


def load_scenario(path) -> ScenarioDef:
    return loads_scenario(_read_text(path))


def scenario_to_doc(scenario: ScenarioDef) -> dict:
    branches = []
    for b in scenario.branches:
        entry = {"id": b.id, "orbit": list(b.orbit), "halt_step": b.halt_step}
        if len(b.orbit) <= b.halt_step:
            entry["post_halt_label"] = b.post_halt_label
        branches.append(entry)
    policy: dict = {"kind": scenario.policy.kind}
    name = _MAP_FIELDS[scenario.policy.kind]
    if name:
        policy[name] = {
            str(bid): {str(k): v for k, v in sorted(mapping.items())}
            for bid, mapping in sorted(scenario.policy.maps.items())
        }
    return {
        "format_version": FORMAT_VERSION,
        "branches": branches,
        "amps": [[float(a.real), float(a.imag)] for a in scenario.amps],
        "policy": policy,
        "t_max": scenario.t_max,
    }


def dumps_scenario(scenario: ScenarioDef) -> str:
    return dumps_document(scenario_to_doc(scenario))
