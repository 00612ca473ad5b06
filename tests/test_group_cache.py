"""The process-wide group cache: a command on a cached group reports what it
reports on a freshly built one, table files are read on every command, and
the kept tables stay within the byte budget."""

from collections import Counter, OrderedDict

import numpy as np
import pytest

import sumsetlab.cli as cli
import sumsetlab.factor_system as factor_system
import sumsetlab.groups as groups
import sumsetlab.replay as replay
import sumsetlab.structure as structure
from sumsetlab.corpus import CORPUS_SPECS
from sumsetlab.groups import FiniteGroup, GroupBuildError, cached_group, parse_group_spec

from conftest import run_cli
from test_groups import NONASSOCIATIVE_LOOP

HEISENBERG_5_SWAPPED = ("--set-a", "8,22,38,82", "--set-b", "34,42")

# each group is used by commands of several kinds, in an order that derives
# its structure differently from a cold start
SESSION = (
    ("verify", "--group", "cyclic:7", "--mode", "exhaustive", "--json"),
    ("verify", "--group", "heisenberg:3", "--mode", "capped", "--max-a", "2",
     "--max-b", "3", "--json"),
    ("verify", "--group", "frobenius:7:3:2", "--mode", "sampled", "--seed", "5",
     "--count", "400", "--json"),
    ("verify", "--group", "cyclic:25", "--theorem", "eh", "--mode", "sampled",
     "--seed", "2", "--count", "300", "--fixed-sizes", "3,4", "--json"),
    ("extremal", "--group", "cyclic:7", "--size-a", "2", "--size-b", "3", "--json"),
    ("extremal", "--group", "heisenberg:3", "--size-a", "2", "--size-b", "2",
     "--limit", "5"),
    ("decompose", "--group", "heisenberg:5", "--json"),
    ("trace", "--group", "heisenberg:5", *HEISENBERG_5_SWAPPED, "--json"),
    ("trace", "--group", "heisenberg:5", *HEISENBERG_5_SWAPPED),
    ("trace", "--group", "heisenberg:3", "--set-a", "0,1", "--set-b", "0,3", "--json"),
    ("decompose", "--group", "heisenberg:3", "--rep-policy", "seeded_random:3", "--json"),
    ("decompose", "--group", "heisenberg:3", "--rep-policy", "lowest_index"),
    ("trace", "--group", "frobenius:7:3:2", "--set-a", "0,4", "--set-b", "1,2", "--json"),
    ("decompose", "--group", "frobenius:7:3:2", "--json"),
    ("decompose", "--group", "quaternion", "--kernel", "6",
     "--rep-policy", "explicit:0,4", "--json"),
    ("trace", "--group", "quaternion", "--set-a", "3", "--set-b", "5", "--json"),
    ("decompose", "--group", "quaternion", "--rep-policy", "seeded_random:3"),
    ("validate", "--group", "heisenberg:3", "--json"),
    ("validate", "--group", "cyclic:7"),
    ("verify", "--group", "cyclic:7", "--mode", "capped", "--sum-cap", "5", "--json"),
)


@pytest.fixture()
def empty_cache(monkeypatch):
    """An empty cache for the test, and the session's put back after it."""
    monkeypatch.setattr(groups, "_cached", OrderedDict())


def run(*argv):
    result = run_cli(*argv)
    return result.exit_code, result.stdout, result.stderr


def test_every_command_reports_the_same_cold_and_warm(empty_cache):
    warm = [run(*argv) for argv in SESSION + SESSION]
    assert len(groups._cached) == 6
    for i, argv in enumerate(SESSION):
        groups._cached.clear()
        cold = run(*argv)
        assert cold[0] in (0, 1), cold
        assert warm[i] == cold, argv
        assert warm[len(SESSION) + i] == cold, argv


def test_equal_specs_share_one_entry(empty_cache):
    assert cached_group("cyclic:07") is cached_group("cyclic:7")
    assert cached_group(" product:cyclic:3,cyclic:03") is cached_group(
        "product:cyclic:3,cyclic:3")
    assert list(groups._cached) == ["cyclic:7", "product:cyclic:3,cyclic:3"]


@pytest.mark.parametrize("spec", CORPUS_SPECS)
def test_a_label_parses_back_to_itself(spec):
    # cached_group looks a spec up as a kept label before it parses it; that
    # finds the right group because a label is its own canonical spec
    label = parse_group_spec(spec).label
    assert parse_group_spec(label).label == label


def test_a_kept_group_is_found_by_its_label_without_parsing(empty_cache, monkeypatch):
    g = cached_group("cyclic:7")
    parsed = Counter()
    parse = groups.parse_group_spec

    def counted(text):
        parsed[text] += 1
        return parse(text)

    monkeypatch.setattr(groups, "parse_group_spec", counted)
    assert cached_group("cyclic:7") is g
    assert run("validate", "--group", "cyclic:7")[0] == 0
    assert not parsed
    assert cached_group("cyclic:07") is g
    assert parsed == {"cyclic:07": 1}
    assert list(groups._cached) == ["cyclic:7"]


def _spy_on_builds(monkeypatch):
    """The label of every group built from now on, counted."""
    built = Counter()
    build = groups.build_group

    def spy(spec):
        built[spec.label] += 1
        return build(spec)

    monkeypatch.setattr(groups, "build_group", spy)
    return built


def test_a_session_of_traces_builds_each_group_once(empty_cache, monkeypatch):
    built = _spy_on_builds(monkeypatch)
    for _ in range(3):
        for spec, a, b in (("heisenberg:3", "0,1", "0,3"), ("cyclic:07", "1,2", "3"),
                           ("heisenberg:5", "8,22,38,82", "34,42"),
                           ("cyclic:7", "0", "4,5")):
            assert run("trace", "--group", spec, "--set-a", a, "--set-b", b)[0] == 0
    assert built == {"heisenberg:3": 1, "cyclic:7": 1, "heisenberg:5": 1}


def _spy_on_memo(monkeypatch):
    """The (group label, key name) of every value built through
    ``FiniteGroup.derived`` from now on, counted."""
    built = Counter()
    derived = FiniteGroup.derived

    def spy(self, key, build):
        def counted():
            built[self.label, key if isinstance(key, str) else key[0]] += 1
            return build()
        return derived(self, key, counted)

    monkeypatch.setattr(FiniteGroup, "derived", spy)
    return built


def _spy_on_calls(monkeypatch, *names):
    """How often each named function is called from now on, through every
    module that refers to it."""
    calls = Counter()

    def spy(name, call):
        def counted(*args, **kwargs):
            calls[name] += 1
            return call(*args, **kwargs)
        return counted

    for module in (groups, structure, factor_system, replay, cli):
        for name in names:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, spy(name, getattr(module, name)))
    return calls


def test_a_warm_session_derives_nothing_twice(empty_cache, monkeypatch):
    trace = ("trace", "--group", "heisenberg:5", *HEISENBERG_5_SWAPPED, "--json")
    built = _spy_on_memo(monkeypatch)
    assert run(*trace)[0] == 0
    assert {key for _, key in built} == {"abelian", "generators", "derived_series",
                                         "replay_ctx", "subgroup_as_group"}
    calls = _spy_on_calls(monkeypatch, "derived_of", "table_group",
                          "build_factor_system", "choose_decomposition_subgroup")
    assert run(*trace)[0] == 0
    assert not calls
    assert run("decompose", "--group", "heisenberg:5", "--json")[0] == 0
    assert calls["derived_of"] == 0
    g = cached_group("heisenberg:5")
    assert g.op_rows() is g.op_rows()
    assert set(built.values()) == {1}, built


def test_heisenberg_11_is_built_once_for_validate_and_decompose(empty_cache,
                                                               monkeypatch):
    # its int16 table (3.4 MiB) fits the budget, so decompose reuses the
    # group that validate built
    built = _spy_on_builds(monkeypatch)
    assert run("validate", "--group", "heisenberg:11")[0] == 0
    assert run("decompose", "--group", "heisenberg:11")[0] == 0
    assert built == {"heisenberg:11": 1}
    assert groups._cached["heisenberg:11"].op.nbytes <= groups.CACHE_BYTES


def test_heisenberg_13_is_built_once_for_validate_and_decompose(empty_cache,
                                                               monkeypatch):
    # its int16 table (9.2 MiB) fits the budget, so decompose reuses the
    # group that validate built, and both run again on the kept group
    built = _spy_on_builds(monkeypatch)
    for _ in range(2):
        assert run("validate", "--group", "heisenberg:13")[0] == 0
        assert run("decompose", "--group", "heisenberg:13")[0] == 0
    assert built == {"heisenberg:13": 1}
    assert groups._cached["heisenberg:13"].op.nbytes <= groups.CACHE_BYTES


@pytest.mark.parametrize("spec, message", [
    ("nonsense:3", "error: unknown group kind 'nonsense'\n"),
    ("cyclic:abc", "error: cyclic parameters must be integers, got 'abc'\n"),
    ("cyclic", "error: cyclic takes 1 parameter(s), got 0\n"),
    ("product:cyclic:3", "error: product spec needs at least two children\n"),
    ("product:product:cyclic:2,cyclic:3",
     "error: nested product specs are not supported\n"),
    ("table:", "error: table spec needs a file path\n"),
    ("cyclic:0", "error: cyclic order must be >= 1\n"),
    ("dihedral:0", "error: dihedral parameter must be >= 1\n"),
    ("heisenberg:2", "error: heisenberg needs an odd prime\n"),
    ("heisenberg:4", "error: heisenberg needs an odd prime\n"),
    ("heisenberg:9", "error: heisenberg needs an odd prime\n"),
    ("frobenius:7:3:3", "error: frobenius multiplier must satisfy "
                        "k^q = 1 (mod p), k != 1 (mod p)\n"),
    ("frobenius:3:7:2", "error: frobenius needs primes q < p\n"),
    ("cyclic:4097", "error: order 4097 exceeds the cap 4096\n"),
    ("product:cyclic:64,cyclic:65", "error: order 4160 exceeds the cap 4096\n"),
])
def test_a_bad_spec_fails_the_same_way_every_time(empty_cache, spec, message):
    for _ in range(2):
        assert run("validate", "--group", spec) == (2, "", message)
    assert not groups._cached


def _write_table(path, rows):
    path.write_text(f"{len(rows)}\n" + "".join(" ".join(map(str, r)) + "\n"
                                               for r in rows))


def test_a_product_with_a_table_file_is_capped_like_any_product(empty_cache, tmp_path):
    # a table file's order is known only once it is read, so the product's
    # cap is checked on the built children
    path = tmp_path / "c64.cay"
    _write_table(path, [[(a + b) % 64 for b in range(64)] for a in range(64)])
    message = "error: order 4160 exceeds the cap 4096\n"
    assert run("validate", "--group", f"product:table:{path},cyclic:65") == (2, "", message)
    assert run("validate", "--group", "product:cyclic:64,cyclic:65") == (2, "", message)
    assert not groups._cached


@pytest.mark.parametrize("template", ["table:{}", "product:table:{},cyclic:3"])
def test_table_files_are_read_on_every_command(empty_cache, tmp_path, template):
    path = tmp_path / "g.cay"
    spec = template.format(path)
    _write_table(path, [[(a + b) % 5 for b in range(5)] for a in range(5)])
    assert run("validate", "--group", spec)[0] == 0
    _write_table(path, NONASSOCIATIVE_LOOP)
    code, out, err = run("validate", "--group", spec)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: table file {path}: associativity: ")
    assert not groups._cached
    path.unlink()
    assert run("validate", "--group", spec)[0] == 2


def test_validate_runs_lights_test_on_a_cached_group(empty_cache, monkeypatch):
    assert run("validate", "--group", "heisenberg:3")[0] == 0
    checked = []
    first = groups._first_nonassociative

    def spy(op, s):
        checked.append(s)
        return first(op, s)

    monkeypatch.setattr(groups, "_first_nonassociative", spy)
    assert run("validate", "--group", "heisenberg:3") == (
        0, "group heisenberg:3 (order 27)\n  all group axioms hold\n", "")
    assert "heisenberg:3" in groups._cached
    assert checked == list(cached_group("heisenberg:3")._cache["generators"])
    assert checked


def _spy_on_lights_test(monkeypatch):
    """The (order, s) of every Light's test run from now on."""
    checked = []
    first = groups._first_nonassociative

    def spy(op, s):
        checked.append((len(op), int(s)))
        return first(op, s)

    monkeypatch.setattr(groups, "_first_nonassociative", spy)
    return checked


def test_validate_checks_the_pruned_generating_set(empty_cache, monkeypatch):
    # the second command finds heisenberg:13 kept, and Light's test runs on
    # it again; (13, 169) generate it, since their commutator 12 generates
    # the centre, which holds the lowest-first element 1
    assert run("validate", "--group", "heisenberg:13")[0] == 0
    checked = _spy_on_lights_test(monkeypatch)
    assert run("validate", "--group", "heisenberg:13")[0] == 0
    assert checked == [(2197, 13), (2197, 169)]


def _write_relabelled(path, spec, seed):
    """The group's table renamed by a seeded permutation that moves the
    identity off 0, written as the benchmark writes its table files."""
    op = groups.build_group(spec).op.astype(np.int64)
    perm = np.random.default_rng(seed).permutation(len(op))
    if perm[0] == 0:
        perm[[0, 1]] = perm[[1, 0]]
    relabelled = np.empty_like(op)
    relabelled[np.ix_(perm, perm)] = perm[op]
    _write_table(path, relabelled.tolist())


def test_a_table_file_is_checked_once_per_command(empty_cache, tmp_path, monkeypatch):
    path = tmp_path / "heisenberg-7.tbl"
    # like the benchmark's seed-0 file: 3 lowest-first elements, 2 kept
    _write_relabelled(path, "heisenberg:7", 12)
    loaded = groups.build_group(f"table:{path}")
    assert tuple(groups.lowest_first_generators(loaded)) == (1, 2, 3)
    gens = groups.generating_set(loaded)
    assert gens == (2, 3)
    checked = _spy_on_lights_test(monkeypatch)
    for _ in range(2):
        code, out, _ = run("validate", "--group", f"table:{path}")
        assert (code, out.split("\n")[1]) == (0, "  all group axioms hold")
        assert checked == [(343, s) for s in gens]
        checked.clear()


def test_a_product_of_a_table_file_is_checked_as_a_product(empty_cache, tmp_path,
                                                          monkeypatch):
    path = tmp_path / "heisenberg-3.tbl"
    _write_relabelled(path, "heisenberg:3", 1)
    spec = f"product:table:{path},cyclic:3"
    table_gens = groups.generating_set(groups.build_group(f"table:{path}"))
    product_gens = groups.generating_set(groups.build_group(spec))
    checked = _spy_on_lights_test(monkeypatch)
    assert run("validate", "--group", spec)[0] == 0
    assert checked == [(27, s) for s in table_gens] + [(81, s) for s in product_gens]


def test_the_least_recently_used_group_goes_first(empty_cache, monkeypatch):
    monkeypatch.setattr(groups, "CACHE_BYTES", 1 << 20)     # two order-512 tables
    specs = ("cyclic:512", "dihedral:256", "product:cyclic:2,cyclic:256")
    held = []

    def get(spec):
        g = cached_group(spec)
        assert g.op.nbytes == 1 << 19
        held.append(sum(h.op.nbytes for h in groups._cached.values()))
        return g

    first = get(specs[0])
    get(specs[1])
    assert get(specs[0]) is first
    get(specs[2])
    assert list(groups._cached) == [specs[0], specs[2]]
    assert get(specs[0]) is first
    assert max(held) <= groups.CACHE_BYTES


def test_a_table_of_the_largest_order_is_kept(empty_cache):
    # the budget is one int16 table of order ORDER_CAP: that table is kept,
    # and the next group evicts the older ones to make room
    assert groups.CACHE_BYTES == 2 * groups.ORDER_CAP ** 2
    small = cached_group("cyclic:5")
    big = cached_group("cyclic:4096")
    assert big.op.nbytes == groups.CACHE_BYTES
    assert list(groups._cached) == ["cyclic:4096"]
    assert cached_group("cyclic:4096") is big
    middle = cached_group("heisenberg:13")
    assert list(groups._cached) == ["heisenberg:13"]
    assert cached_group("cyclic:5") is not small
    assert list(groups._cached) == ["heisenberg:13", "cyclic:5"]
    assert cached_group("heisenberg:13") is middle
    assert sum(g.op.nbytes for g in groups._cached.values()) <= groups.CACHE_BYTES


def test_build_group_builds_a_fresh_group_every_time(empty_cache):
    assert groups.build_group("cyclic:7") is not groups.build_group("cyclic:7")
    assert not groups._cached
    with pytest.raises(GroupBuildError):
        cached_group("nonsense:1")


def test_a_warm_session_searches_automorphisms_once(empty_cache, monkeypatch):
    # the capped eh scan of Z/3 x Z/9 folds the automorphisms that fix 0;
    # the element orders and the search are kept in the group's memo
    scan = ("verify", "--group", "product:cyclic:3,cyclic:9", "--theorem", "eh",
            "--mode", "capped", "--max-a", "3", "--max-b", "3", "--json")
    built = _spy_on_memo(monkeypatch)
    calls = _spy_on_calls(monkeypatch, "_element_orders")
    first = run(*scan)
    assert first[0] == 0
    label = cached_group("product:cyclic:3,cyclic:9").label
    assert calls == {"_element_orders": 1}
    assert built[label, "automorphisms"] == 1
    assert run(*scan) == first
    assert calls == {"_element_orders": 1}
    assert built[label, "automorphisms"] == 1


def test_a_declined_search_stays_declined_once_the_memo_is_filled(empty_cache,
                                                                  monkeypatch):
    # heisenberg:3's generating set (3, 9) gives 26^2 candidates for its 432
    # automorphisms; the limit is checked before the memo is read
    g = cached_group("heisenberg:3")
    built = _spy_on_memo(monkeypatch)
    assert structure.automorphisms(g, limit=26 ** 2 - 1) is None
    assert (g.label, "automorphisms") not in built
    assert len(structure.automorphisms(g)) == 432
    assert structure.automorphisms(g, limit=26 ** 2 - 1) is None
    assert structure.automorphisms(g, limit=26 ** 2) is structure.automorphisms(g)
    assert built[g.label, "automorphisms"] == 1
