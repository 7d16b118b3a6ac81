"""Document formats: round-trips and validation with locations."""

import json
import pathlib

import numpy as np
import pytest

from haltlab.ancilla import run_superposition
from haltlab.documents import (
    MAX_T_MAX,
    MAX_TRACE_LABELS,
    DocumentError,
    dumps_machine,
    dumps_scenario,
    load_machine,
    load_scenario,
    loads_machine,
    loads_scenario,
)
from haltlab.nogo import random_compliant_table
from haltlab.qtm import (
    MachineDims,
    TransitionTable,
    check_ozawa_compliance,
    right_shift_table,
)

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def test_machine_round_trip_bytes():
    text = (FIXTURES / "right_shift.json").read_text()
    assert dumps_machine(loads_machine(text)) == text


def test_random_machine_round_trip_preserves_rules():
    table = random_compliant_table(MachineDims(2, 2, 6), np.random.default_rng(1))
    text = dumps_machine(table)
    again = loads_machine(text)
    assert again.dims == table.dims
    assert again.rules == table.rules
    assert dumps_machine(again) == text


def test_listed_zero_amplitude_outcome_counts_and_round_trips():
    # a halted key listing a tape-rewriting outcome of amplitude zero is
    # still a compliance violation, and the document keeps the listing
    dims = MachineDims(1, 2, 3)
    rules = {(0, s, hb): [(0, s, 1, hb, 1.0)] for s in range(2) for hb in (0, 1)}
    rules[(0, 0, 1)] = [(0, 0, 1, 1, 1.0), (0, 1, -1, 1, 0.0)]
    text = dumps_machine(TransitionTable(dims, rules))
    assert json.loads(text)["rules"][1]["out"][1] == {
        "q2": 0, "sym2": 1, "move": -1, "halt2": 1, "amp": [0.0, 0.0]
    }
    table = loads_machine(text)
    assert check_ozawa_compliance(table).violations == (((0, 0, 1), (0, 1, -1, 1)),)
    assert dumps_machine(table) == text


def test_scenario_round_trip_is_idempotent():
    for name in ("scenario_equal_halt.json", "scenario_shared_unequal.json",
                 "scenario_permuted.json"):
        text = (FIXTURES / name).read_text()
        once = dumps_scenario(loads_scenario(text))
        twice = dumps_scenario(loads_scenario(once))
        assert once == twice
        assert json.loads(once) == json.loads(text)


def test_scenario_amps_renormalized_when_sloppy():
    doc = json.loads((FIXTURES / "scenario_equal_halt.json").read_text())
    doc["amps"] = [[0.707106781, 0.0], [0.707106781, 0.0]]  # off by ~5e-10
    scenario = loads_scenario(json.dumps(doc))
    total = sum(abs(a) ** 2 for a in scenario.amps)
    assert total == pytest.approx(1.0, abs=1e-14)


def test_scenario_rejects_unnormalized_amps():
    doc = json.loads((FIXTURES / "scenario_equal_halt.json").read_text())
    doc["amps"] = [[0.7, 0.0], [0.7, 0.0]]
    with pytest.raises(DocumentError) as err:
        loads_scenario(json.dumps(doc))
    assert err.value.location == "amps"


def test_machine_parse_error_locations():
    base = json.loads((FIXTURES / "right_shift.json").read_text())

    doc = json.loads(json.dumps(base))
    doc["rules"][3]["out"][0]["amp"] = [1.0]
    with pytest.raises(DocumentError) as err:
        loads_machine(json.dumps(doc))
    assert err.value.location == "rules[3].out[0].amp"

    doc = json.loads(json.dumps(base))
    doc["rules"][1]["q"] = 9
    with pytest.raises(DocumentError) as err:
        loads_machine(json.dumps(doc))
    assert "rules[1]" in err.value.location

    doc = json.loads(json.dumps(base))
    doc["rules"][2] = dict(doc["rules"][0])
    with pytest.raises(DocumentError) as err:
        loads_machine(json.dumps(doc))
    assert "duplicate" in str(err.value)

    doc = json.loads(json.dumps(base))
    del doc["rules"][0]
    with pytest.raises(DocumentError) as err:
        loads_machine(json.dumps(doc))
    assert "missing rule keys" in str(err.value)


def test_machine_rejects_wrong_version():
    doc = json.loads((FIXTURES / "right_shift.json").read_text())
    doc["format_version"] = 2
    with pytest.raises(DocumentError) as err:
        loads_machine(json.dumps(doc))
    assert "format_version" in err.value.location


def test_machine_rejects_bad_json_with_position():
    with pytest.raises(DocumentError) as err:
        loads_machine('{"format_version": 1,,}')
    assert "line 1" in err.value.location


def test_scenario_rejects_bad_policy_at_load():
    doc = json.loads((FIXTURES / "scenario_permuted.json").read_text())
    doc["policy"]["permutations"]["2"] = {"0": 1, "1": 1}
    with pytest.raises(DocumentError) as err:
        loads_scenario(json.dumps(doc))
    assert err.value.location == "policy"


@pytest.mark.parametrize("key", ["x", "1.5", "00", "+2", " 2", "2_0"])
@pytest.mark.parametrize("field", ["branch id", "offset"])
def test_policy_keys_must_be_canonical_integers(field, key):
    def alter(doc):
        perms = doc["policy"]["permutations"]
        if field == "branch id":
            perms[key] = perms.pop("2")
        else:
            perms["2"] = {"0": 2, key: 0} if key != "00" else {"2": 0, key: 2}

    location = "policy.permutations" + ("[2]" if field == "offset" else "")
    with pytest.raises(DocumentError) as err:
        loads_scenario(_altered("scenario_permuted.json", alter))
    assert err.value.location == location
    assert str(err.value) == f"{location}: {field} key {key!r} is not a canonical decimal integer"


def test_custom_policy_keys_are_checked_like_permutation_keys():
    def alter(doc):
        doc["policy"] = {"kind": "CustomOrbit", "maps": {"0": {"0": 3}, "00": {"0": 4}}}

    with pytest.raises(DocumentError, match=r"^policy.maps: branch id key '00' is not"):
        loads_scenario(_altered("scenario_permuted.json", alter))


def test_negative_policy_keys_reach_the_policy_check():
    def alter(doc):
        doc["policy"]["permutations"]["2"] = {"-1": 2, "2": -1}

    with pytest.raises(DocumentError, match=r"^policy: .* negative ancilla indices$"):
        loads_scenario(_altered("scenario_permuted.json", alter))


def test_scenario_rejects_mixed_label_types():
    doc = json.loads((FIXTURES / "scenario_equal_halt.json").read_text())
    doc["branches"][0]["orbit"] = [0, "a1", "a2", "done1"]
    with pytest.raises(DocumentError):
        loads_scenario(json.dumps(doc))


def test_scenario_rejects_amp_count_mismatch():
    doc = json.loads((FIXTURES / "scenario_equal_halt.json").read_text())
    doc["amps"] = [[1.0, 0.0]]
    with pytest.raises(DocumentError) as err:
        loads_scenario(json.dumps(doc))
    assert err.value.location == "amps"


def _altered(name, alter):
    doc = json.loads((FIXTURES / name).read_text())
    alter(doc)
    return json.dumps(doc)


def test_machine_with_huge_dims_names_its_first_missing_keys():
    # the 2*M*S keys are never listed, so this returns at once
    text = _altered("right_shift.json", lambda doc: doc["dims"].update(M=2**40))
    with pytest.raises(DocumentError, match=r"^rules: missing rule keys: \[\(2, 0, 0\), "):
        loads_machine(text)


def test_amplitude_beyond_the_float_range_is_a_document_error():
    def huge(doc):
        doc["rules"][0]["out"][0]["amp"] = [10**400, 0]

    with pytest.raises(DocumentError, match="amplitude must be finite"):
        loads_machine(_altered("right_shift.json", huge))


def test_integer_past_the_digit_limit_is_a_document_error():
    text = (FIXTURES / "right_shift.json").read_text().replace('"M": 2', '"M": 1' + "0" * 5000)
    with pytest.raises(DocumentError, match="^document: "):
        loads_machine(text)


def test_scenario_t_max_is_capped():
    at_cap = loads_scenario(_altered("scenario_permuted.json", lambda d: d.update(t_max=MAX_T_MAX)))
    assert at_cap.t_max == MAX_T_MAX
    with pytest.raises(DocumentError, match=r"^document.t_max: must be <= 10000, got 10001$"):
        loads_scenario(_altered("scenario_permuted.json", lambda d: d.update(t_max=MAX_T_MAX + 1)))


def _halted_branches(n, t_max):
    """Scenario text: n branches halted at step 0 on distinct labels."""
    return json.dumps({
        "format_version": 1,
        "branches": [{"id": k, "orbit": [f"c{k}"], "halt_step": 0} for k in range(n)],
        "amps": [[n**-0.5, 0.0]] * n,
        "policy": {"kind": "SharedOrbit"},
        "t_max": t_max,
    })


def test_scenario_trace_is_capped_in_labels():
    n = MAX_TRACE_LABELS // (MAX_T_MAX + 1)
    at_cap = loads_scenario(_halted_branches(n, MAX_T_MAX))
    assert len(at_cap.branches) * (at_cap.t_max + 1) == MAX_TRACE_LABELS
    # one branch more, at the smallest t_max whose trace passes the cap
    t_max = MAX_TRACE_LABELS // (n + 1)
    assert (n + 1) * t_max <= MAX_TRACE_LABELS < (n + 1) * (t_max + 1)
    with pytest.raises(DocumentError) as err:
        loads_scenario(_halted_branches(n + 1, t_max))
    assert str(err.value) == (
        f"document: {n + 1} branches over {t_max + 1} steps make "
        f"{(n + 1) * (t_max + 1)} composite labels, more than {MAX_TRACE_LABELS}"
    )


def test_load_functions_read_files(tmp_path):
    table = right_shift_table(MachineDims(1, 2, 3))
    path = tmp_path / "machine.json"
    path.write_text(dumps_machine(table))
    assert load_machine(path).rules == table.rules
    scenario = load_scenario(FIXTURES / "scenario_equal_halt.json")
    assert scenario.t_max == 20
    assert len(scenario.branches) == 2


def _permuted(alter):
    return _altered("scenario_permuted.json", alter)


def _first_branch(alter):
    return _permuted(lambda doc: alter(doc["branches"][0]))


def _right_shift(alter):
    return _altered("right_shift.json", alter)


@pytest.mark.parametrize(
    "load, text, fragment",
    [
        pytest.param(loads_machine, _right_shift(lambda d: d.update(dims=[2, 2, 6])),
                     "dims: expected an object, got list", id="holder-not-object"),
        pytest.param(loads_machine, _right_shift(lambda d: d.pop("rules")),
                     "document: missing field 'rules'", id="missing-field"),
        pytest.param(loads_scenario,
                     _permuted(lambda d: d["amps"].__setitem__(0, "AMP"))
                     .replace('"AMP"', "[1e400, 0.0]"),
                     "amps[0]: amplitude must be finite", id="json-1e400"),
        pytest.param(loads_machine, "[1, 2]", "document: top level must be an object",
                     id="top-level"),
        pytest.param(loads_machine, _right_shift(lambda d: d.update(rules={})),
                     "rules: expected a list", id="rules-not-list"),
        pytest.param(loads_machine, _right_shift(lambda d: d["rules"][0].update(out={})),
                     "rules[0].out: expected a list", id="out-not-list"),
        pytest.param(loads_scenario, _first_branch(lambda b: b.update(orbit="a0")),
                     "branches[0].orbit: expected a list of labels", id="orbit-not-list"),
        pytest.param(loads_scenario, _permuted(lambda d: d.update(branches=[])),
                     "branches: expected a non-empty list", id="no-branches"),
        pytest.param(loads_scenario, _permuted(lambda d: d["policy"].update(permutations=[])),
                     "policy.permutations: expected an object", id="maps-not-object"),
        pytest.param(loads_scenario,
                     _permuted(lambda d: d["policy"]["permutations"].update({"2": [0, 2]})),
                     "policy.permutations[2]: expected an object of index -> index",
                     id="map-not-object"),
        pytest.param(loads_scenario, _first_branch(lambda b: b["orbit"].__setitem__(0, 1.5)),
                     "branches[0].orbit: label 1.5 must be string or integer", id="label-type"),
        pytest.param(loads_scenario, _first_branch(lambda b: b.update(post_halt_label=True)),
                     "branches[0].post_halt_label: must be string or integer",
                     id="post-halt-label-type"),
        pytest.param(loads_scenario, _permuted(lambda d: d["policy"].update(kind="LoopOrbit")),
                     "policy.kind: unknown kind 'LoopOrbit'", id="policy-kind"),
        pytest.param(loads_scenario, _permuted(lambda d: d["policy"].update(kind=["SharedOrbit"])),
                     "policy.kind: unknown kind ['SharedOrbit']", id="policy-kind-not-string"),
    ],
)
def test_input_checks(load, text, fragment):
    with pytest.raises(DocumentError) as caught:
        load(text)
    assert type(caught.value) is DocumentError
    assert fragment in str(caught.value)


def test_custom_orbit_scenario_round_trips():
    text = _permuted(
        lambda d: d.update(policy={"kind": "CustomOrbit", "maps": {"1": {"0": 3, "1": 0}}})
    )
    scenario = loads_scenario(text)
    assert scenario.policy.maps == {1: {0: 3, 1: 0}}
    once = dumps_scenario(scenario)
    assert json.loads(once) == json.loads(text)
    assert dumps_scenario(loads_scenario(once)) == once


def test_orbit_ending_at_its_halt_step_round_trips_its_post_halt_label():
    def cut_orbit(branch):
        branch["orbit"] = branch["orbit"][: branch["halt_step"]]
        branch["post_halt_label"] = "frozen"

    text = _first_branch(cut_orbit)
    scenario = loads_scenario(text)
    trace = run_superposition(scenario.branches, scenario.amps, scenario.policy, t_max=3)
    assert trace.branch_label(0, 3) == "frozen"
    once = dumps_scenario(scenario)
    assert json.loads(once) == json.loads(text)
    assert "post_halt_label" not in json.loads(once)["branches"][1]
    assert dumps_scenario(loads_scenario(once)) == once
