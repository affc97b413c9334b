"""Index sets and compilation to fixpoint systems."""

import itertools
import json
import random
import time
from collections import Counter
from fractions import Fraction

import pytest

from phors_lab import load_bundled, scheme_path
from phors_lab.algebra import Poly
from phors_lab.decide import decide_past
from phors_lab.interp import (
    ArrowPoint,
    GroundPoint,
    IndexCapExceeded,
    InterpError,
    VAR_CAP,
    _Interp,
    _split,
    compile_scheme,
    index_set,
    index_size,
    nt_vid,
    reachable,
    var_name,
    z_vid,
)
from phors_lab.operational import enumerate_terminations
from phors_lab.solver import kleene_series
from phors_lab.syntax import App, Arrow, Ground, NonTerm, O, Var, parse, spine
from phors_lab.transforms import compose
from phors_lab.algebra import REGISTRY

from conftest import (
    CLOSED_TYPABLE,
    chain_tower,
    declared_indexes,
    random_order1_scheme,
    random_order2_scheme,
    ring_text,
    zero_unknowns,
)
from test_cli import _python


FN = Arrow(1, O, O)  # !1 o -o o

# F's type has exactly VAR_CAP = 10^5 points, (9 + 1)^5, and only
# ([]->1) of them is nonzero.
AT_CAP = "F : !9 o^5 -o o ; F x = e ; S = F <e,e,e,e,e> ;"


class ProbeInterp(_Interp):
    """The reference interpretation of an application: f a at r sums
    f[mu -> r] times a's points as mu uses them over every multiset mu of
    f's declared argument type, dropping the zero terms.  compile_scheme's
    interpreter sums over the head's candidate indexes instead."""

    def __init__(self, scheme, rule, found, sets):
        super().__init__(scheme, rule, found, sets)
        self.scheme = scheme

    def _sem(self, t, idx):
        match t:
            case Var(n):
                return Poly.var(self.atom(n, idx))
            case NonTerm(n):
                if idx not in self.found[n]:
                    return Poly()
                return Poly.var(nt_vid(n, idx))
            case App(f, a):
                fty = self._type(f)
                total = Poly()
                for mu in _multisets(fty.arg, int(fty.grade), self.sets):
                    fpart = self.sem(f, ArrowPoint(mu, idx))
                    if not fpart:
                        continue
                    prod = fpart
                    for pt, mult in mu:
                        apart = self.sem(a, pt)
                        if not apart:
                            prod = Poly()
                            break
                        for _ in range(mult):
                            prod = self._cut(prod * apart)
                    total = total + prod
                return total
        return super()._sem(t, idx)

    def atom(self, name, pt):
        """The probe's id for binding name's atom at pt, negative as
        _Interp's are.  Its point is recorded for compile_scheme's split,
        but no cap, so that the readings of a whole body stay uncut."""
        key = (self.bindings[name][0], pt)
        vid = self.atoms.setdefault(key, -1 - len(self.atoms))
        self.points[vid] = key
        return vid

    def _type(self, t):
        """The declared type of t, a variable or a non-terminal applied to
        some arguments."""
        head, args = spine(t)
        if isinstance(head, Var):
            ty = self.bindings[head.name][2]
        else:
            ty = self.scheme.nonterminals[head.name].ty
        for _ in args:
            ty = ty.result
        return ty


def _multisets(ty, grade, sets):
    """All multisets over index_set(ty, sets) with each multiplicity at
    most grade, as sorted ((point, mult), ...) tuples, memoised in
    `sets`.  Grade 0 admits only the empty multiset."""
    if grade == 0:
        return [()]
    pts = index_set(ty, sets)
    mus = sets.get((ty, grade))
    if mus is None:
        mus = sets[ty, grade] = sorted(
            tuple((p, m) for p, m in zip(pts, mults) if m)
            for mults in itertools.product(range(grade + 1), repeat=len(pts))
        )
    return mus


def interpret_body(scheme, rule, target, unchecked=False):
    """The reference interpreter: the polynomial interpreting the rule (as
    an abstraction over its parameters) at one index of its declared
    type, every unknown read as itself and products cut at the target's
    own multiplicities.

    With unchecked=True the target may carry argument multiplicities
    beyond the declared grades; the interpretation of a well-typed
    scheme is then identically zero there (stability)."""
    d = scheme.nonterminals[rule]
    sets = {}
    found = declared_indexes(scheme, sets)
    if not unchecked and target not in found[rule]:
        raise InterpError(f"index not in the declared index set of {rule!r}")
    interp = ProbeInterp(scheme, rule, found, sets)
    # Unwind the target through the rule's abstractions.
    profile = []
    for pname in d.params:
        if target[0] != 1:
            raise InterpError(f"index too shallow for rule {rule!r}")
        _, arg_uses, target = target
        profile.extend((interp.atom(pname, pt), m) for pt, m in arg_uses)
    # Every atom of a binding of grade >= 1 (a well-typed body uses no
    # other), capped at the target's multiplicity, or 0 if it has none.
    points = {
        interp.atom(pname, pt)
        for pname, (grade, pty) in zip(d.params, _spine(d.ty))
        if grade
        for pt in index_set(pty, sets)
    }
    interp.caps = dict.fromkeys(points, 0) | dict(profile)
    buckets = _split(interp.sem(d.body, target), points)
    return Poly(buckets.get(tuple(sorted(profile)), {}))


class TestIndexSets:
    def test_ground_sizes(self):
        assert index_size(O) == 1
        assert index_size(Ground(3)) == 3

    def test_arrow_sizes(self):
        assert index_size(FN) == 2  # ([] -> 1) and ([1] -> 1)
        assert index_size(Arrow(2, FN, FN)) == (2 + 1) ** 2 * 2  # 18

    def test_enumeration_matches_size(self):
        for ty in (O, Ground(2), FN, Arrow(2, FN, FN)):
            pts = index_set(ty)
            assert len(pts) == index_size(ty)
            assert len(set(pts)) == len(pts)

    def test_enumeration_is_sorted_and_deterministic(self):
        pts = index_set(Arrow(2, FN, FN))
        assert pts == index_set(Arrow(2, FN, FN))
        assert pts == sorted(pts)

    def test_enumeration_order_is_pinned(self):
        # An index is its own key, and this order is the order in which
        # unknowns are interned and equations built, so it must not drift.
        g = (0, 1)
        empty, used = (1, (), g), (1, ((g, 1),), g)
        assert index_set(Arrow(2, FN, FN)) == [
            (1, (), empty),
            (1, (), used),
            (1, ((empty, 1),), empty),
            (1, ((empty, 1),), used),
            (1, ((empty, 1), (used, 1)), empty),
            (1, ((empty, 1), (used, 1)), used),
            (1, ((empty, 1), (used, 2)), empty),
            (1, ((empty, 1), (used, 2)), used),
            (1, ((empty, 2),), empty),
            (1, ((empty, 2),), used),
            (1, ((empty, 2), (used, 1)), empty),
            (1, ((empty, 2), (used, 1)), used),
            (1, ((empty, 2), (used, 2)), empty),
            (1, ((empty, 2), (used, 2)), used),
            (1, ((used, 1),), empty),
            (1, ((used, 1),), used),
            (1, ((used, 2),), empty),
            (1, ((used, 2),), used),
        ]
        assert (GroundPoint(1), ArrowPoint(((g, 1),), g)) == (g, used)

    def test_cap_enforced(self):
        # About 10^3000 points; one more arrow level would have about
        # 10^(10^3000), whose size is never computed either.
        big = Arrow(9, Arrow(9, Ground(3), Ground(3)), O)
        for ty in (big, Arrow(9, big, O)):
            with pytest.raises(IndexCapExceeded):
                index_set(ty)
            assert index_size(ty) == VAR_CAP + 1

    def test_grade_zero_argument_is_not_enumerated(self):
        # The only multiset of grade 0 is the empty one, whatever the
        # size of the argument's own index set.
        big = Arrow(9, Arrow(9, Ground(3), Ground(3)), O)
        assert index_set(Arrow(0, big, Ground(2))) == [
            ArrowPoint((), GroundPoint(1)),
            ArrowPoint((), GroundPoint(2)),
        ]

    def test_multiplicities_bounded_by_grade(self):
        for tag, arg_uses, _ in index_set(Arrow(2, FN, FN)):
            assert tag == 1
            assert all(m <= 2 for _, m in arg_uses)
            assert sum(m for _, m in arg_uses) <= 2 * index_size(FN)


class TestInterpretBody:
    def test_random_walk_equation(self):
        s = load_bundled("randomwalk")
        target = ArrowPoint(((GroundPoint(1), 1),), GroundPoint(1))
        p = interpret_body(s, "F", target)
        z = z_vid()
        y = nt_vid("F", target)
        # F = z/2 * F^2 + z/2  at the one surviving index.
        half_z = Poly.const(Fraction(1, 2)) * Poly.var(z)
        expected = half_z * Poly.var(y) * Poly.var(y) + half_z
        assert p == expected

    def test_unit_rule(self):
        s = parse("S = e ;")
        assert interpret_body(s, "S", GroundPoint(1)) == Poly.const(1)

    def test_omega_rule(self):
        s = parse("S = omega ;")
        assert not interpret_body(s, "S", GroundPoint(1))

    def test_stability_outside_declared_grades(self):
        # At argument multiplicities beyond the declared grade, the
        # interpretation of a well-typed body is identically zero once
        # least-fixpoint-zero unknowns are removed.
        s = load_bundled("randomwalk")
        wide = ArrowPoint(((GroundPoint(1), 3),), GroundPoint(1))
        p = interpret_body(s, "F", wide, unchecked=True)
        fas = compile_scheme(s)
        kept = set(fas.eqs)
        live = Poly(
            {
                m: c
                for m, c in p.terms.items()
                if all(
                    not (REGISTRY.key_of(v)[0] == "nt" and v not in kept)
                    for v, _ in m
                )
            }
        )
        assert not live

    def test_invalid_index_rejected(self):
        s = load_bundled("randomwalk")
        with pytest.raises(Exception):
            interpret_body(s, "F", GroundPoint(1))


class TestCompile:
    def test_rejects_ill_typed_schemes(self):
        with pytest.raises(InterpError):
            compile_scheme(load_bundled("nonalg"))
        with pytest.raises(InterpError, match="infinite grade present"):
            compile_scheme(load_bundled("dyck"))  # infinitary, reduce first

    def test_grade_zero_binding_is_not_enumerated(self):
        # x's type has about 10^3000 points, but grade 0 means x is never
        # used; every index set the compile needs has one point.
        s = parse(
            "F : !0 (!9 (!9 o^3 -o o^3) -o o) -o o ; F x = e ; "
            "G : !0 (!9 o^3 -o o^3) -o o ; G h = e ; S = F G ;"
        )
        assert reachable(compile_scheme(s)).render() == (
            "y[F;([]->1)] = 1   # improper\n"
            "y[S;1] = y[F;([]->1)]   # improper\n"
            "start y[S;1]\n"
        )

    def test_random_walk_system(self):
        fas = compile_scheme(load_bundled("randomwalk"))
        target = ArrowPoint(((GroundPoint(1), 1),), GroundPoint(1))
        assert set(fas.eqs) == {nt_vid("S", GroundPoint(1)), nt_vid("F", target)}
        assert fas.start == nt_vid("S", GroundPoint(1))

    def test_zero_unknowns_eliminated(self):
        scheme = load_bundled("randomwalk")
        fas = compile_scheme(scheme)
        # The index ([] -> 1) of F never generates output (F always uses
        # its argument), so it is eliminated.
        dead = nt_vid("F", ArrowPoint((), GroundPoint(1)))
        assert dead not in fas.eqs
        assert dead in zero_unknowns(scheme, fas)
        assert not fas.zeros

    def test_grade_bound_after_zero_elimination(self):
        # The raw body polynomial may exceed a binding's declared grade,
        # but only on monomials carrying least-fixpoint-zero unknowns.
        # After dropping those, the degree in each binding's variables
        # is bounded by its grade.
        for name in ("randomwalk", "eq3", "chain", "geometric"):
            scheme = load_bundled(name)
            for nt, grade, dom, live in _live_bodies(scheme):
                assert live.degree_in(dom) <= grade, (name, nt)

    def test_properness_flags(self):
        fas = compile_scheme(load_bundled("randomwalk"))
        target = ArrowPoint(((GroundPoint(1), 1),), GroundPoint(1))
        flagged = {
            line.split(" = ")[0]
            for line in fas.render().splitlines()
            if line.endswith("   # improper")
        }
        assert var_name(nt_vid("F", target)) not in flagged
        # S = F is a bare linear unknown: flagged improper.
        assert flagged == {var_name(nt_vid("S", GroundPoint(1)))}

    def test_compile_is_deterministic(self):
        a = compile_scheme(load_bundled("eq3"))
        b = compile_scheme(load_bundled("eq3"))
        assert a.eqs == b.eqs
        assert a.render() == b.render()

    def test_order1_bodies_affine(self):
        # At order 1 a ground argument reaches head position at most
        # once per run, so live body polynomials are affine in all
        # argument variables taken together.
        rng = random.Random(7)
        for _ in range(10):
            scheme = random_order1_scheme(rng)
            all_args, lives = {}, {}
            for nt, _grade, dom, live in _live_bodies(scheme):
                all_args.setdefault(nt, set()).update(dom)
                lives[nt] = live
            for nt, live in lives.items():
                assert live.degree_in(all_args[nt]) <= 1, nt

    def test_open_scheme_is_refused(self):
        # Only a closed scheme has a generating function to compile.
        with pytest.raises(InterpError) as e:
            compile_scheme(load_bundled("dyck_core"))
        assert str(e.value) == (
            "scheme does not type-check: open parameters are not finitely graded"
        )

    def test_open_scheme_has_parameter_variables(self):
        # The parameters of an open scheme belong to the scheme; plugging
        # them all closes it, and the compiled system then reads only its
        # unknowns and z.
        scheme = load_bundled("dyck_core")
        assert set(scheme.params) == {"f", "g"}
        actions = load_bundled("brackets")
        closed = compose(compose(scheme, actions, "f", "A"), actions, "g", "B")
        assert closed.is_closed()
        fas = compile_scheme(closed)
        read = set().union(*(p.variables() for p in fas.eqs.values()))
        assert read <= set(fas.eqs) | {z_vid()}

    def test_reachable_restricts_to_start_component(self):
        fas = compile_scheme(load_bundled("brackets"))
        sub = reachable(fas)
        # Z = e reaches nothing else.
        assert set(sub.eqs) == {sub.start}

    def test_var_names_render(self):
        fas = compile_scheme(load_bundled("randomwalk"))
        names = {var_name(v) for v in fas.eqs}
        assert "y[S;1]" in names

    def test_compiled_equations_match_per_target_interpretation(self):
        # compile_scheme shares one interpreter per rule and cuts
        # products at the declared grades; interpreting each target on
        # its own must give the same equations once zeros are dropped,
        # and nothing at an index that has no equation.
        rng = random.Random(2024)
        schemes = [_compilable(load_bundled(n)) for n in CLOSED_TYPABLE]
        schemes += [
            (random_order1_scheme if i % 2 else random_order2_scheme)(rng)
            for i in range(50)
        ]
        # T passes its grade-1 binding y twice, in one tuple, so the body
        # of T has monomials with y squared; only the cut keeps them out
        # of T's equations.
        schemes.append(parse(
            "T : !1 (!1 o^2 -o o) -o !1 o -o o ; T x y = x <y, y> ; "
            "H : !1 o^2 -o o ; H p = pi_1 p [1/2] pi_2 p ; S = T H e ;"
        ))
        for scheme in schemes:
            fas = compile_scheme(scheme)
            zeros = zero_unknowns(scheme, fas)
            # Every equation is of a declared unknown.
            assert sum(map(index_size, (d.ty for d in scheme.nonterminals.values()))) == (
                len(fas.eqs) + len(zeros)
            )
            dead = zeros | {v for v, p in fas.eqs.items() if not p}
            for nt, d in scheme.nonterminals.items():
                for idx in index_set(d.ty):
                    vid = nt_vid(nt, idx)
                    p = interpret_body(scheme, nt, idx)
                    live = Poly(
                        {
                            m: c
                            for m, c in p.terms.items()
                            if not any(v in dead for v, _ in m)
                        }
                    )
                    assert live == fas.eqs.get(vid, Poly()), var_name(vid)

    def test_no_round_builds_a_zero_equation(self, monkeypatch):
        # A rule's equations are the nonempty buckets of its body, so no
        # Kleene round returns a zero polynomial, and each bucket spells
        # an index of the rule's declared type.
        import phors_lab.interp as interp

        rounds = []
        rule_equations = interp._rule_equations

        def recording(scheme, rule, found, sets):
            eqs = rule_equations(scheme, rule, found, sets)
            rounds.append((scheme.nonterminals[rule].ty, eqs))
            return eqs

        monkeypatch.setattr(interp, "_rule_equations", recording)
        schemes = [_compilable(load_bundled(n)) for n in CLOSED_TYPABLE]
        for scheme in schemes + [chain_tower(4), parse(AT_CAP)]:
            rounds.clear()
            fas = compile_scheme(scheme)
            assert rounds
            declared = {}
            for ty, eqs in rounds:
                if ty not in declared:
                    declared[ty] = set(index_set(ty))
                assert all(eqs.values())
                assert declared[ty].issuperset(eqs)
        assert fas.render() == (
            "y[F;([]->1)] = 1   # improper\n"
            "y[S;1] = y[F;([]->1)]   # improper\n"
            "start y[S;1]\n"
        )
        assert len(zero_unknowns(scheme, fas)) == VAR_CAP - 1

    def test_applications_interpret_only_candidate_indexes(self, monkeypatch):
        # An application sums over its head's nonzero indexes, not over
        # every multiset of the head's declared argument type as the probe
        # does, and both give the same system.  The at-cap scheme's F has
        # 10^5 declared indexes, of which one is nonzero.
        import phors_lab.interp as interp

        tower = chain_tower(6)
        with monkeypatch.context() as m:
            m.setattr(interp, "_Interp", ProbeInterp)
            probed = compile_scheme(tower)
        calls = 0
        sem = interp._Interp._sem

        def counting(self, t, idx):
            nonlocal calls
            calls += 1
            return sem(self, t, idx)

        monkeypatch.setattr(interp._Interp, "_sem", counting)
        at_cap = parse(AT_CAP)
        fas = compile_scheme(at_cap)
        assert calls <= 10
        assert fas.render() == (
            "y[F;([]->1)] = 1   # improper\n"
            "y[S;1] = y[F;([]->1)]   # improper\n"
            "start y[S;1]\n"
        )
        assert len(zero_unknowns(at_cap, fas)) == VAR_CAP - 1
        calls = 0
        fas = compile_scheme(tower)
        assert calls <= 500
        zeros = zero_unknowns(tower, fas)
        assert (len(fas.eqs), len(zeros), len(reachable(fas).eqs)) == (137, 11320, 9)
        assert fas.render() == probed.render()
        assert list(fas.eqs) == list(probed.eqs)

    def test_each_type_enumerated_once_per_compile(self, monkeypatch):
        # One compile shares its index sets among all its interpreters;
        # a second compile enumerates again, since nothing outlives one.
        import phors_lab.interp as interp

        enumerated = Counter()
        enum = interp._enum

        def counting(ty, sets):
            enumerated[ty] += 1
            return enum(ty, sets)

        monkeypatch.setattr(interp, "_enum", counting)
        for scheme in (chain_tower(3), load_bundled("chain")):
            enumerated.clear()
            compile_scheme(scheme)
            first = Counter(enumerated)
            assert first and max(first.values()) == 1, first
            enumerated.clear()
            compile_scheme(scheme)
            assert enumerated == first

    def test_interpreters_per_rule(self, monkeypatch):
        # Compiling visits the call graph callees first, and interprets
        # each rule once, then again each time a callee in its component
        # gains an unknown: a rule outside every recursive component is
        # interpreted once, a recursive one at most once more than its
        # component has nonzero unknowns.
        import phors_lab.interp as interp

        built = []

        class Counting(interp._Interp):
            def __init__(self, scheme, rule, found, sets):
                built.append(rule)
                super().__init__(scheme, rule, found, sets)

        monkeypatch.setattr(interp, "_Interp", Counting)

        def check(scheme):
            built.clear()
            fas = compile_scheme(scheme)
            nonzero = Counter(
                REGISTRY.key_of(v)[1] for v, p in fas.eqs.items() if p
            )
            calls = {n: interp._callees(d.body) for n, d in scheme.nonterminals.items()}
            for comp in interp.sccs(calls):
                if len(comp) == 1 and comp[0] not in calls[comp[0]]:
                    assert built.count(comp[0]) == 1, comp
                else:
                    most = sum(nonzero[n] for n in comp) + 1
                    assert all(1 <= built.count(n) <= most for n in comp), comp
            return nonzero

        nonzero = check(load_bundled("chain"))
        assert [built.count(n) for n in ("F1", "C1", "I", "S")] == [1, 1, 1, 1]
        assert 2 <= built.count("F2") <= nonzero["F2"] + 1
        rng = random.Random(808)
        for i in range(50):
            check((random_order1_scheme if i % 2 else random_order2_scheme)(rng))
        # Each of these components gains one rule's unknown at a time, in
        # the order of the rules' names or against it.  Passes over the
        # whole component would interpret each rule once per gain.
        for text in (walk_text(400, True), walk_text(400, False), forward_ring_text(400)):
            scheme = parse(text)
            check(scheme)
            assert len(built) <= 3 * len(scheme.nonterminals)


# The compiled system and the verdict of each scheme text given as an
# argument, as one JSON list, from a fresh process.
FRESH_REPORTS = """
import json, sys
from phors_lab.decide import decide_past
from phors_lab.interp import compile_scheme, reachable
from phors_lab.syntax import parse
reports = []
for text in sys.argv[1:]:
    fas = compile_scheme(parse(text))
    reports.append([fas.render(), decide_past(reachable(fas)).to_jsonable()])
print(json.dumps(reports))
"""


class TestRegistry:
    def test_compile_registers_only_its_equations(self):
        # A compile adds to REGISTRY the keys of its equations, and ("z",)
        # once a choice is interpreted; bound-variable atoms stay in their
        # rule's interpreter, and no declared unknown without an equation
        # is interned.
        rng = random.Random(25)
        schemes = [_compilable(load_bundled(n)) for n in CLOSED_TYPABLE]
        schemes += [chain_tower(4), parse(AT_CAP)]
        schemes += [
            (random_order1_scheme if i % 2 else random_order2_scheme)(rng)
            for i in range(50)
        ]
        for scheme in schemes:
            before = len(REGISTRY)
            fas = compile_scheme(scheme)
            added = {REGISTRY.key_of(v) for v in range(before, len(REGISTRY))}
            assert added <= {REGISTRY.key_of(v) for v in fas.eqs} | {("z",)}
        assert all(REGISTRY.key_of(v)[0] != "bv" for v in range(len(REGISTRY)))
        # An atom's negative id names no key, not one from the table's end.
        with pytest.raises(KeyError):
            REGISTRY.key_of(-1)
        # In a fresh process, the at-cap scheme's compile registers its
        # two equations' unknowns only.
        proc = _python("-c", (
            "from phors_lab.algebra import REGISTRY\n"
            "from phors_lab.interp import compile_scheme\n"
            "from phors_lab.syntax import parse\n"
            f"compile_scheme(parse({AT_CAP!r}))\n"
            "print(sorted(map(REGISTRY.key_of, range(len(REGISTRY)))))\n"
        ))
        assert proc.stdout == "[('nt', 'F', (1, (), (0, 1))), ('nt', 'S', (0, 1))]\n"

    def test_no_declared_type_is_enumerated(self, monkeypatch):
        # The at-cap check is arithmetic: the compile enumerates F's binding
        # type, which F's body uses, and ground types, never F's declared
        # type of 10^5 points.
        import phors_lab.interp as interp

        enumerated = set()
        index_set_ = interp.index_set

        def recording(ty, sets=None):
            enumerated.add(ty)
            return index_set_(ty, sets)

        monkeypatch.setattr(interp, "index_set", recording)
        scheme = parse(AT_CAP.replace("F x = e", "F x = pi_1 x"))
        assert reachable(compile_scheme(scheme)).render() == (
            "y[F;([1]->1)] = 1   # improper\n"
            "y[S;1] = y[F;([1]->1)]   # improper\n"
            "start y[S;1]\n"
        )
        assert enumerated == {Ground(5), O}

    def test_outputs_do_not_depend_on_earlier_compiles(self):
        # Variable ids depend on what the process compiled before; a
        # system's render and its verdict must not.
        texts = [
            scheme_path(n).read_text(encoding="utf-8") for n in ("chain", "eq3", "randomwalk")
        ]
        texts += [ring_text(3, Fraction(2, 3)), ring_text(2, Fraction(1, 3))]
        proc = _python("-c", FRESH_REPORTS, *texts)
        assert proc.returncode == 0, proc.stderr
        rng = random.Random(2025)
        for i in range(200):
            scheme = (random_order1_scheme if i % 2 else random_order2_scheme)(rng)
            decide_past(reachable(compile_scheme(scheme)))
        reports = []
        for text in texts:
            fas = compile_scheme(parse(text))
            reports.append([fas.render(), decide_past(reachable(fas)).to_jsonable()])
        assert json.dumps(reports) + "\n" == proc.stdout


class TestGradeTower:
    """The chain-style tower at grades 8, 16 and 64: nearly all of its
    unknowns are zero in the least fixpoint."""

    def test_grade_8(self):
        scheme = chain_tower(3)
        fas = compile_scheme(scheme)
        zeros = zero_unknowns(scheme, fas)
        assert (len(fas.eqs), len(zeros), len(reachable(fas).eqs)) == (22, 229, 6)
        _check_against_enumerator(scheme, fas)

    def test_grade_16_compiles_within_10_s(self):
        scheme = chain_tower(4)
        start = time.perf_counter()
        fas = compile_scheme(scheme)
        elapsed = time.perf_counter() - start
        zeros = zero_unknowns(scheme, fas)
        assert (len(fas.eqs), len(zeros), len(reachable(fas).eqs)) == (39, 790, 7)
        assert elapsed < 10, elapsed

    def test_grade_64(self):
        scheme = chain_tower(6)
        _check_against_enumerator(scheme, compile_scheme(scheme))


def walk_text(n, stop_last):
    """Gambler's ruin on the states 0..n from n // 2: state k steps to
    k + 1 or k - 1, each with probability 1/2, state 0 stops and state n
    steps to n - 1 without a choice.  State k's rule is Wj, with j = n - k
    when stop_last and j = k otherwise, zero-padded so that names sort as
    numbers."""
    name = lambda k: f"W{n - k if stop_last else k:0{len(str(n))}d}"
    rules = [f"{name(0)} = e ;", f"{name(n)} = {name(n - 1)} ;"]
    rules += [f"{name(k)} = {name(k + 1)} [1/2] {name(k - 1)} ;" for k in range(1, n)]
    return " ".join(rules) + f" S = {name(n // 2)} ;"


def forward_ring_text(n):
    """n rules, each passing its argument to the next; only the last one,
    whose name sorts last, may return it, with probability 1/2."""
    name = lambda i: f"F{i:0{len(str(n - 1))}d}"
    rules = [f"{name(i)} : !1 o -o o ; {name(i)} x = {name(i + 1)} x ;" for i in range(n - 1)]
    rules.append(f"{name(n - 1)} : !1 o -o o ; {name(n - 1)} x = {name(0)} x [1/2] x ;")
    return " ".join(rules) + f" S = {name(0)} e ;"


def _check_against_enumerator(scheme, fas):
    """The start's coefficients to degree 8 equal the operational
    enumerator's termination probabilities."""
    sub = reachable(fas)
    series = kleene_series(sub, 8)[sub.start]
    probs, budget_hit = enumerate_terminations(scheme, 8, step_budget=10**5)
    assert not budget_hit
    assert [probs.get(k, 0) for k in range(9)] == list(series.coeffs[:9])


def _compilable(scheme):
    from phors_lab.syntax import is_finitary
    from phors_lab.transforms import reduce_inf

    if all(is_finitary(d.ty) for d in scheme.nonterminals.values()):
        return scheme
    return reduce_inf(scheme)


def _spine(ty):
    out = []
    while isinstance(ty, Arrow):
        out.append((ty.grade, ty.arg))
        ty = ty.result
    return out


def _live_bodies(scheme):
    """Yield (rule, grade, binding's variable ids, live body polynomial)
    per finitely graded binding, where "live" drops every monomial that
    mentions a least-fixpoint-zero unknown."""
    zeros = zero_unknowns(scheme, compile_scheme(scheme))
    sets = {}
    found = declared_indexes(scheme, sets)
    for nt, d in scheme.nonterminals.items():
        interp = ProbeInterp(scheme, nt, found, sets)
        raw = interp.sem(d.body, GroundPoint(1))
        live = Poly(
            {
                m: c
                for m, c in raw.terms.items()
                if not any(v in zeros for v, _ in m)
            }
        )
        for pname, (grade, pty) in zip(d.params, _spine(d.ty)):
            dom = {interp.atom(pname, pt) for pt in index_set(pty)}
            yield nt, int(grade), dom, live
