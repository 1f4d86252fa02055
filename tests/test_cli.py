"""The batch front-end: config validation, reports, goldens, exit codes."""

import hashlib
import json
import re
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

import wildram
from wildram import autoreps, cli, coeffring, series
from wildram.cli import (
    KNOWN_TASKS,
    MAX_ARTIN_ORDER,
    MAX_PRECISION,
    ConfigInvalid,
    UnknownTask,
    compare_golden,
    main,
    parse_config,
    run,
    sample_ftilde_precision,
    selftest,
    selftest_grid,
    strip_timing,
    task_rho,
)
from wildram.series import LaurentSeries


def sample_config(**over):
    cfg = {
        "field": {"p": 3, "d": 1},
        "character": {"s": 1, "m": 2, "vals": [[1]]},
        "seed": 7,
        "tasks": ["rho", "cohomology", "predicates"],
    }
    cfg.update(over)
    return cfg


def test_parse_config_accepts_sample():
    job = parse_config(sample_config())
    assert job["ch"].m == 2 and job["ch"].s == 1
    assert [t["name"] for t in job["tasks"]] == ["rho", "cohomology", "predicates"]


@pytest.mark.parametrize("mutate,pointer", [
    (lambda c: c.pop("field"), "/field"),
    (lambda c: c["field"].update(p=1), "/field/p"),
    (lambda c: c["field"].update(p=4), "/field"),
    (lambda c: c["character"].update(m=0), "/character/m"),
    (lambda c: c["character"].update(vals=[[1], [1]]), "/character/vals"),
    pytest.param(lambda c: c["character"].update(vals=[[1.5]]), "/character/vals",
                 id="<lambda>-/character/vals-float"),
    (lambda c: c.update(precision=2), "/precision"),
    (lambda c: c.update(seed="x"), "/seed"),
])
def test_parse_config_error_pointers(mutate, pointer):
    cfg = sample_config()
    mutate(cfg)
    with pytest.raises(ConfigInvalid) as exc:
        parse_config(cfg)
    assert exc.value.pointer == pointer


def test_unknown_task_pointer():
    with pytest.raises(UnknownTask) as exc:
        parse_config(sample_config(tasks=["rho", "frobnicate"]))
    assert exc.value.pointer == "/tasks/1/name"


def test_run_produces_passing_report():
    report = run(sample_config(tasks=["rho", "cohomology", "ascover",
                                      "deform", "predicates"]))
    assert report["schema"] == "wildram-report/1"
    assert report["summary"]["ok"]
    names = [t["name"] for t in report["tasks"]]
    assert names == ["rho", "cohomology", "ascover", "deform", "predicates"]
    coh = report["tasks"][1]["results"]
    assert coh["h1_dim"] == coh["h1_formula"] == 2
    assert report["tasks"][3]["results"]["formula_matches"] == \
        report["tasks"][3]["results"]["samples"]


def test_run_parallel_matches_serial():
    cfg = sample_config()
    a = strip_timing(run(cfg))
    b = strip_timing(run(cfg, parallel=True))
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_run_parallel_with_every_task_matches_serial():
    """At (3,2,2) with every task, run in the executor's default pool; each
    run parses a fresh character, so its rho memo starts empty.  The rho
    task fills the tables of powers of the memoized rho while the deform
    task builds rho through the same memo and composes over the dual
    numbers in another thread."""
    cfg = sample_config(field={"p": 3, "d": 2},
                        character={"s": 2, "m": 2, "vals": [[1, 0], [0, 1]]},
                        tasks=["rho", "cohomology", "ascover", "deform",
                               "predicates"])
    serial = json.dumps(strip_timing(run(cfg)), sort_keys=True)
    threaded = json.dumps(strip_timing(run(cfg, parallel=True)), sort_keys=True)
    assert threaded == serial


def test_report_is_json_serializable_and_deterministic():
    cfg = sample_config(tasks=["rho", "ascover", "deform"])
    r1 = json.dumps(strip_timing(run(cfg)), sort_keys=True)
    r2 = json.dumps(strip_timing(run(cfg)), sort_keys=True)
    assert r1 == r2


@pytest.mark.parametrize("field,character", [
    ({"p": 3, "d": 1}, {"s": 1, "m": 2, "vals": [[1]]}),
    ({"p": 2, "d": 2}, {"s": 2, "m": 3, "vals": [[1, 0], [0, 1]]}),
])
def test_ascover_report_survives_a_json_round_trip(field, character):
    """u and u1 serialize to lists, so the report equals its own JSON
    round trip and no reader sees a tuple turn into a list."""
    report = run(sample_config(field=field, character=character,
                               tasks=["ascover"]))
    assert report["tasks"][0]["ok"]
    assert json.loads(json.dumps(report)) == report


def test_cohomology_task_at_s3_matches_the_formula():
    """At (3,3,2) over F_27 the brute force reads dim H^1(V, T) = 5, the
    closed formula's value, so the cohomology task passes."""
    report = run(sample_config(
        field={"p": 3, "d": 3},
        character={"s": 3, "m": 2, "vals": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]},
        tasks=["cohomology"]))
    entry = report["tasks"][0]
    assert entry["ok"]
    assert entry["results"]["h1_dim"] == entry["results"]["h1_formula"] == 5


def test_deform_above_the_h2_limit_reports_the_samples():
    """At p^s = 125 the deform entry keeps its five extractions and
    reports both obstruction fields, read off the relation defects of the
    generator lifts."""
    report = run(sample_config(
        field={"p": 5, "d": 3},
        character={"s": 3, "m": 3, "vals": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]},
        tasks=["deform"]))
    entry = report["tasks"][0]
    assert "error" not in entry
    res = entry["results"]
    assert res["formula_matches"] == res["samples"] == 5
    assert res["obstruction_zero"] and res["obstruction_coboundary"]
    assert entry["ok"] and res["ok"]


def test_golden_roundtrip(tmp_path):
    cfg = sample_config()
    report = run(cfg)
    golden = tmp_path / "golden.json"
    golden.write_text(json.dumps(report))
    assert compare_golden(run(cfg), str(golden)) == []
    # a doctored golden yields a pointered diff
    doctored = json.loads(json.dumps(report))
    doctored["tasks"][0]["results"]["artin_identity"] += 1
    golden.write_text(json.dumps(doctored))
    diff = compare_golden(run(cfg), str(golden))
    assert diff and "artin_identity" in diff[0]["path"]


def test_main_exit_codes(tmp_path, capsys):
    cfg_path = tmp_path / "job.json"
    cfg_path.write_text(json.dumps(sample_config(tasks=["predicates"])))
    assert main(["run", "--config", str(cfg_path)]) == 0
    capsys.readouterr()

    cfg_path.write_text("{not json")
    assert main(["run", "--config", str(cfg_path)]) == 2
    capsys.readouterr()

    bad = sample_config()
    bad["character"]["m"] = 3  # divisible by p
    cfg_path.write_text(json.dumps(bad))
    assert main(["run", "--config", str(cfg_path)]) == 2
    capsys.readouterr()

    cfg_path.write_text(json.dumps(sample_config(tasks=["predicates"])))
    assert main(["run", "--config", str(cfg_path),
                 "--golden", str(tmp_path / "absent.json")]) == 2
    capsys.readouterr()


def test_oversized_jobs_exit_2_before_building_fields(tmp_path, monkeypatch, capsys):
    """Fields above q = 625, precisions or Artin orders above their caps,
    and a deform task whose longest series, 5m + 1 terms, would pass the
    precision cap (m = 205 is the least such m) are rejected as
    configuration errors with a message, before any field is enumerated."""
    real_modulus = coeffring._default_modulus
    oversized = []

    def guarded_modulus(p, d):
        if p ** d > coeffring.MAX_FIELD_SIZE:
            oversized.append((p, d))
            raise MemoryError  # what enumerating and tabulating would end in
        return real_modulus(p, d)

    monkeypatch.setattr(coeffring, "_default_modulus", guarded_modulus)
    gf2 = {"field": {"p": 2, "d": 1},
           "character": {"s": 1, "m": 1, "vals": [[1]]}}
    cfg_path = tmp_path / "job.json"
    for cfg, pointer in [(sample_config(field={"p": 101, "d": 6}), "/field"),
                         (sample_config(field={"p": 101, "d": 2}), "/field"),
                         (sample_config(precision=10 ** 7, **gf2), "/precision"),
                         (sample_config(precision=MAX_PRECISION + 1), "/precision"),
                         (sample_config(artin_order=MAX_ARTIN_ORDER + 1),
                          "/artin_order"),
                         (sample_config(character={"s": 1, "m": 205, "vals": [[1]]},
                                        precision=MAX_PRECISION,
                                        tasks=["rho", {"name": "deform"}]),
                          "/character/m")]:
        with pytest.raises(ConfigInvalid) as exc:
            parse_config(cfg)
        assert exc.value.pointer == pointer
        assert str(exc.value).partition(": ")[2]
        cfg_path.write_text(json.dumps(cfg))
        assert main(["run", "--config", str(cfg_path)]) == 2
        assert capsys.readouterr().err.strip() != "config error at %s:" % pointer
    assert not oversized


def test_deform_cap_is_the_sample_denominator():
    """The longest series of the deform task is the denominator of a
    sample's ftilde: 5m + 1 terms, from the precision 3m + 1 that the
    extraction needs.  m = 204 is the largest conductor under the
    precision cap."""
    def job(m):
        return sample_config(field={"p": 7, "d": 1},
                             character={"s": 1, "m": m, "vals": [[1]]},
                             precision=MAX_PRECISION,
                             tasks=["predicates", "deform"])

    def longest(m):
        return sample_ftilde_precision(m) + 2 * m

    assert parse_config(job(204))["ch"].m == 204
    assert longest(204) == 5 * 204 + 1 <= MAX_PRECISION
    with pytest.raises(ConfigInvalid) as exc:
        parse_config(job(205))
    assert exc.value.pointer == "/character/m"
    assert str(exc.value).endswith("to %d terms, above the limit %d"
                                   % (longest(205), MAX_PRECISION))


def test_default_precision_is_capped_only_for_the_rho_task():
    """Only the rho task reads the precision.  A deform-only job at p = 3,
    m = 100 is accepted with the default 4(m + 1)p = 1212 above the cap; the
    same job with rho is refused at /precision, as is a given precision
    above the cap whatever the tasks."""
    def job(tasks, **over):
        return sample_config(character={"s": 1, "m": 100, "vals": [[1]]},
                             tasks=tasks, **over)

    assert autoreps.default_precision(3, 100) > MAX_PRECISION
    assert parse_config(job(["deform"]))["ch"].m == 100
    for cfg in [job(["deform", "rho"]),
                job(["deform"], precision=MAX_PRECISION + 1)]:
        with pytest.raises(ConfigInvalid) as exc:
            parse_config(cfg)
        assert exc.value.pointer == "/precision"


def test_conductor_is_capped_whatever_the_tasks():
    """m + 2 <= MAX_PRECISION, the bound a precision above m + 1 and under
    the cap gave every job: a cohomology job at m = 1023 is refused at
    /character/m, and m = 1021, the largest conductor under the bound
    that is prime to 2, is accepted."""
    def job(m):
        return sample_config(field={"p": 2, "d": 1},
                             character={"s": 1, "m": m, "vals": [[1]]},
                             tasks=["cohomology"])

    with pytest.raises(ConfigInvalid) as exc:
        parse_config(job(MAX_PRECISION - 1))
    assert exc.value.pointer == "/character/m"
    assert str(exc.value).endswith("conductor 1023 above the limit 1022")
    assert parse_config(job(MAX_PRECISION - 3))["ch"].m == 1021


def test_rank_above_the_field_degree_exits_2_without_a_moore_determinant(
        tmp_path, monkeypatch, capsys):
    """Twelve values in GF(2) are F_2-dependent; the job exits 2 at once
    instead of expanding a 12 x 12 Moore determinant."""
    def boom(xs):
        pytest.fail("moore_det called")

    monkeypatch.setattr(autoreps, "moore_det", boom)
    cfg = {"field": {"p": 2, "d": 1},
           "character": {"s": 12, "m": 3, "vals": [[1]] * 12}}
    cfg_path = tmp_path / "job.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(cfg_path)]) == 2
    assert "/character/vals" in capsys.readouterr().err


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=8)
small_ints = st.integers(-2, 8)
coeff_lists = st.lists(st.integers(0, 2), min_size=1, max_size=3)
# Plausible values are mostly valid, so that draws reach the later checks;
# json_values supplies the invalid ones.
PLAUSIBLE = {
    ("field", "p"): st.sampled_from([2, 3, 5]),
    ("field", "d"): st.sampled_from([1, 2, 3]),
    ("field", "modulus"): st.lists(small_ints, max_size=4),
    ("character", "s"): st.sampled_from([1, 2, 3]),
    ("character", "m"): st.sampled_from([1, 2, 4, 5, 7, 3]),
    ("character", "vals"): st.lists(coeff_lists, max_size=3),
    ("artin_order",): st.sampled_from([2, 3, MAX_ARTIN_ORDER + 1]),
    ("precision",): st.integers(0, 40),
    ("seed",): small_ints,
    ("tasks",): st.lists(st.sampled_from(["rho", "deform", "frob", {}, {"name": 1}]),
                         max_size=3),
}


@st.composite
def fuzzed_configs(draw):
    """A job whose every key is plausible, absent or any JSON value; rarely
    a section, or the whole job, is any JSON value."""
    rarely = st.sampled_from([False] * 9 + [True])
    cfg = {"field": {}, "character": {}}
    for path, plausible in PLAUSIBLE.items():
        # a drawn modulus is rarely irreducible, so it is rarely given
        common = "absent" if path[-1] == "modulus" else "plausible"
        choice = draw(st.sampled_from([common] * 8 + ["plausible", "absent", "json"]))
        if choice == "absent":
            continue
        node = cfg
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = draw(plausible if choice == "plausible" else json_values)
    chd = cfg["character"]
    s = chd.get("s")
    if "vals" in chd and type(s) is int and 1 <= s <= 3 and not draw(rarely):
        chd["vals"] = draw(st.lists(coeff_lists, min_size=s, max_size=s))
    for key in ("field", "character"):
        if draw(rarely):
            cfg[key] = draw(json_values)
    return draw(json_values) if draw(rarely) else cfg


@given(cfg=fuzzed_configs())
@settings(max_examples=300, deadline=None)
def test_parse_config_raises_only_config_invalid(cfg):
    try:
        parse_config(cfg)
    except ConfigInvalid:
        pass


@st.composite
def parsed_jobs(draw):
    """A job that parses: p in {2,3,5}, d <= 3, s <= d, m <= 10 prime to p,
    Artin order <= 4 and every task."""
    p = draw(st.sampled_from([2, 3, 5]))
    d = draw(st.integers(1, 3))
    s = draw(st.integers(1, d))
    m = draw(st.sampled_from([m for m in range(1, 11) if m % p]))
    vals = draw(st.lists(st.lists(st.integers(0, p - 1), min_size=d, max_size=d),
                         min_size=s, max_size=s))
    cfg = {"field": {"p": p, "d": d},
           "character": {"s": s, "m": m, "vals": vals},
           "artin_order": draw(st.integers(1, 4)),
           "seed": draw(st.integers(0, 99)),
           "tasks": list(KNOWN_TASKS)}
    try:
        parse_config(cfg)
    except ConfigInvalid:
        assume(False)
    return cfg


UNTYPED = {"AssertionError", "KeyError", "IndexError", "TypeError",
           "AttributeError"}


@given(cfg=parsed_jobs())
@settings(max_examples=40, deadline=None)
def test_parsed_jobs_give_consistent_reports(cfg):
    """Every task of a parsed job ends in a report: it survives a JSON round
    trip, its summary counts its task entries, and every error names a
    typed exception rather than one a bug would raise."""
    report = run(cfg)
    text = json.dumps(report, sort_keys=True, allow_nan=False)
    assert json.dumps(json.loads(text), sort_keys=True) == text
    tasks = report["tasks"]
    passed = sum(1 for t in tasks if t["ok"])
    assert report["summary"] == {"passed": passed, "failed": len(tasks) - passed,
                                 "ok": passed == len(tasks)}
    for t in tasks:
        if "error" in t:
            assert not t["ok"]
            assert t["error"].partition(":")[0] not in UNTYPED, t["error"]


def test_version_matches_pyproject():
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    declared = re.search(r'^version = "([^"]+)"', text, re.M).group(1)
    assert wildram.__version__ == declared


def test_main_writes_output_file(tmp_path, capsys):
    cfg_path = tmp_path / "job.json"
    out_path = tmp_path / "report.json"
    cfg_path.write_text(json.dumps(sample_config(tasks=["predicates"])))
    assert main(["run", "--config", str(cfg_path), "--out", str(out_path)]) == 0
    capsys.readouterr()
    report = json.loads(out_path.read_text())
    assert report["summary"]["ok"]


def test_selftest_grid_is_fixed():
    grid = selftest_grid()
    assert len(grid) == 15
    assert all(pt["seed"] == 7 for pt in grid)
    assert grid == selftest_grid()


# sha256 and length of json.dumps(selftest(), sort_keys=True).  A deliberate
# change of the report updates both, together with a CHANGES.md line that
# says what changed in the report and why.
SELFTEST_SHA256 = "626fabce1d641895d9577304a72c2efe4e81a712d346b20e8982a7783436c9c1"
SELFTEST_BYTES = 19401


def test_selftest_report_digest_is_pinned():
    text = json.dumps(selftest(), sort_keys=True)
    assert (hashlib.sha256(text.encode()).hexdigest(), len(text)) == \
        (SELFTEST_SHA256, SELFTEST_BYTES)


# sha256 and length of json.dumps(strip_timing(run(job)), sort_keys=True)
# for the slowest accepted ascover jobs, V = (Z/p)^d in GF(p^d) with the
# unit vectors as values and m = 1021.
ASCOVER_CORNERS = {
    (5, 3): ("febdfb879d13a049de05b8a5ba337be7190ce0ae350f73ceed74eddcd48ff6a2", 473),
    (2, 6): ("670ecce889828defabed6323044829bac44ebb832017932081b29e0a7c4fff30", 604),
    (5, 4): ("fb6409ca20e4e0afb721e84acdc7310bf1546927970f62cf8b046b2f45c7e67b", 511),
}


@pytest.mark.parametrize("p,d", sorted(ASCOVER_CORNERS))
def test_ascover_corner_report_is_pinned(p, d):
    vals = [[int(i == j) for j in range(d)] for i in range(d)]
    report = run({"field": {"p": p, "d": d},
                  "character": {"s": d, "m": 1021, "vals": vals},
                  "tasks": ["ascover"]})
    assert report["summary"]["ok"]
    text = json.dumps(strip_timing(report), sort_keys=True)
    assert (hashlib.sha256(text.encode()).hexdigest(), len(text)) == \
        ASCOVER_CORNERS[(p, d)]


RHO_JOB = {"field": {"p": 3, "d": 2},
           "character": {"s": 2, "m": 4, "vals": [[1, 0], [0, 1]]},
           "tasks": ["rho"]}


@pytest.mark.parametrize("planted", [(1, 1), (2, 1), (0, 2)])
def test_rho_task_checks_the_defining_equation_on_every_element(planted):
    """A rho_g with one coefficient changed, planted in the memo for a g
    that is not a generator, makes defining_equation_ok false: the
    equation is checked on every element, not on the generators alone."""
    job = parse_config(RHO_JOB)
    ch, prec = job["ch"], job["precision"]
    assert task_rho(job)["defining_equation_ok"]
    g = autoreps.GroupElem(planted)
    rho = autoreps.build_rho(ch, g, prec)
    ch.memo[("rho", g.exps, prec)] = rho + LaurentSeries.t_power(ch.field, ch.m + 2, prec)
    assert not task_rho(job)["defining_equation_ok"]


def test_rho_task_inverts_no_series(monkeypatch):
    """The defining equation is checked in the product form
    rho^m (1 + c t^m) = t^m, which inverts nothing."""
    calls = []
    real = series.invert_unit_series

    def counted(a):
        calls.append(a)
        return real(a)
    for mod in (series, autoreps, cli):
        if getattr(mod, "invert_unit_series", None) is real:
            monkeypatch.setattr(mod, "invert_unit_series", counted)
    res = task_rho(parse_config(RHO_JOB))
    assert res["ok"] and res["defining_equation_ok"]
    assert calls == []


def test_strip_timing_removes_all_timing():
    node = {"timing": 1, "a": [{"timing": {"x": 2}, "b": 3}]}
    assert strip_timing(node) == {"a": [{"b": 3}]}
