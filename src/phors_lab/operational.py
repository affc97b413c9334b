"""Operational oracle: a call-by-name closure machine with probabilistic
choice (Krivine, "A call-by-name lambda-calculus machine", HOSC 2007),
driven by an exhaustive enumerator of exact termination probabilities
and by a reproducible Monte Carlo estimator.  The enumerator and the
compiled generating function must agree coefficient by coefficient; this
is the end-to-end sanity check of the whole pipeline.

The machine does not walk the syntax tree: each rule body is compiled
once per call into a code form of nested tuples tagged by small-int
opcodes (Ager, Biernacki, Danvy & Midtgaard, PPDP 2003).  An application
spine is one node with its pushes precomputed, a non-terminal points at
its rule's [arity, code] cell, and a choice carries its bias n/d as the
ints (n, d) and as the float threshold ⌈n·2⁵³/d⌉ / 2⁵³: `random()` is
m / 2⁵³, so it is below the threshold exactly when m·d < n·2⁵³.  Monte
Carlo resolves each choice inside the machine loop, one call per trial;
the enumerator gets the machine back at each choice.  It walks the
choice tree as a DAG: the machine is deterministic between choices, and
equal states, found by structural keys, are walked once."""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction
from operator import is_

from .syntax import (
    App,
    Choice,
    ExecError,
    NonTerm,
    Param,
    Proj,
    Scheme,
    Tuple_,
    Unit,
    Var,
    spine,
)

DEFAULT_STEP_BUDGET = 10**6

PRNG_ALGORITHM = "python-random-mt19937-one-stream"

# Opcodes, the first item of every code node.  The first three cost no
# step; `_run`'s outcome is _UNIT, _OMEGA, _CHOICE or _LIMIT.
_APP, _VAR, _PROJ, _CALL, _NT, _CHOICE, _TUPLE, _UNIT, _OMEGA, _PARAM, _LIMIT = range(11)

# Steps since the last choice after which `_run` looks for a repeated state.
_QUIET = 2**16


def _compile(scheme: Scheme) -> tuple:
    """The code of the start symbol.  Its nodes are (_APP, head, pushes),
    (_VAR, slot), (_PROJ, index, body), (_CALL, cell, args), (_NT, cell,
    name), (_CHOICE, left, right, n, d, threshold), (_TUPLE, items),
    (_UNIT,), (_OMEGA,) and (_PARAM, name), where a cell is a rule's
    [arity, code].  A _CALL is a non-terminal applied to at least its
    arity of arguments: it binds the first ones as the rule's env, and an
    _APP around it pushes the rest.  An argument is an env slot, a
    prebuilt closed closure (code, None), or a compound argument that
    mentions a parameter, (code, True), closed over the env when it is
    used: only those keep an env, so a loop passing closed terms on runs
    in constant space."""
    cells = {n: [len(d.params), None] for n, d in scheme.nonterminals.items()}

    def comp(t, pos) -> tuple[tuple, bool]:
        """(code of t, whether t mentions a parameter)."""
        k = type(t)
        if k is App:
            head, args = spine(t)
            h, is_open = comp(head, pos)
            items = []
            for a in args:
                if type(a) is Var:
                    items.append(pos[a.name])
                    is_open = True
                else:
                    c, o = comp(a, pos)
                    items.append((c, o or None))
                    is_open |= o
            if type(head) is NonTerm and h[1][0] <= len(items):
                arity = h[1][0]
                h = (_CALL, h[1], tuple(items[:arity]))
                items = items[arity:]
                if not items:
                    return h, is_open
            return (_APP, h, tuple(reversed(items))), is_open
        if k is Var:
            return (_VAR, pos[t.name]), True
        if k is NonTerm:
            return (_NT, cells[t.name], t.name), False
        if k is Choice:
            (left, lo), (right, ro) = comp(t.left, pos), comp(t.right, pos)
            n, d = t.bias.numerator, t.bias.denominator
            return (_CHOICE, left, right, n, d, -((-n << 53) // d) / 2**53), lo or ro
        if k is Tuple_:
            items = [comp(u, pos) for u in t.items]
            return (_TUPLE, tuple(c for c, _ in items)), any(o for _, o in items)
        if k is Proj:
            body, is_open = comp(t.body, pos)
            return (_PROJ, t.index, body), is_open
        if k is Param:
            return (_PARAM, t.name), False
        return ((_UNIT,) if k is Unit else (_OMEGA,)), False

    for n, d in scheme.nonterminals.items():
        cells[n][1] = comp(d.body, {p: i for i, p in enumerate(d.params)})[0]
    return _NT, cells[scheme.start], scheme.start


def _run(t, env, stack, left, draw=None):
    """Run the state (t, env, stack) of `_compile`d code to e or omega
    (`_UNIT`, `_OMEGA`), to the end of its `left` steps (`_LIMIT`), or,
    without a `draw`, to a `_CHOICE` (t is then the choice).  With one,
    a choice takes its left branch when draw() is below its threshold.
    Returns (outcome, t, env, stack, choices drawn).  `env` holds the
    closures (code, env) of the rule's parameters; `stack` is a cons
    list of argument closures and `int` projection frames.  Steps are
    unfoldings, choices, and projections meeting a tuple, e or omega;
    nothing else costs one.  Once `_QUIET` steps have passed since the
    last choice, each unfolding's state is compared with one saved at
    the last power of two (Brent): a repeat is a choice-free loop, which
    can only end at the step limit."""
    chosen = 0
    watch, seen = left - _QUIET, None
    while left > 0:
        op = t[0]
        while op < _CALL:
            if op == _APP:
                for a in t[2]:
                    if a.__class__ is int:
                        a = env[a]
                    elif a[1]:
                        a = (a[0], env)
                    stack = (a, stack)
                t = t[1]
            elif op == _VAR:
                t, env = env[t[1]]
            else:
                stack = (t[1], stack)
                t = t[2]
            op = t[0]
        if op <= _NT:  # an unfolding
            if op == _CALL:
                bound = ()
                for a in t[2]:
                    if a.__class__ is int:
                        a = env[a]
                    elif a[1]:
                        a = (a[0], env)
                    bound += (a,)
                env = bound
                t = t[1][1]
            else:
                arity, body = t[1]
                env = ()
                while len(env) < arity:
                    if stack is None or stack[0].__class__ is int:
                        raise ExecError(f"under-applied non-terminal {t[2]!r} at head")
                    a, stack = stack
                    env += (a,)
                t = body
            if left < watch:
                if seen is None:
                    seen = [t, env, stack, 1, 0]
                elif _repeats(seen, t, env, stack):
                    return _LIMIT, t, env, stack, chosen
        elif op == _CHOICE:
            if draw is None:
                return _CHOICE, t, env, stack, chosen
            t = t[1] if draw() < t[5] else t[2]
            chosen += 1
            watch, seen = left - 1 - _QUIET, None
        elif stack is not None and stack[0].__class__ is int and _TUPLE <= op <= _OMEGA:
            # A normal form e or omega is a ground value of width 1.
            i, stack = stack
            if i > (len(t[1]) if op == _TUPLE else 1):
                raise ExecError("projection index out of range")
            if op == _TUPLE:
                t = t[1][i - 1]
        elif op == _TUPLE:
            raise ExecError("tuple in head position of a ground term")
        elif op == _PARAM:
            raise ExecError(f"open parameter {t[1]!r} reached head position")
        else:  # e or omega: drop its arguments, up to a projection frame
            while stack is not None and stack[0].__class__ is not int:
                stack = stack[1]
            if stack is None:
                return op, t, env, stack, chosen
            if op == _UNIT:
                raise ExecError("terminal applied to arguments")
            return _LIMIT, t, env, stack, chosen  # under a projection it steps in place forever
        left -= 1
    return _LIMIT, t, env, stack, chosen


def _repeats(seen: list, t, env, stack) -> bool:
    """Brent's cycle check: whether (t, env, stack) is the state `seen`
    saved, compared shallowly (the same code, env entries and stack
    objects; envs can nest too deep for ==).  `seen` is [t, env, stack,
    power, count]: the state is saved again after `power` calls, and
    `power` doubles."""
    if (seen[0] is t and seen[2] is stack and len(seen[1]) == len(env)
            and all(map(is_, seen[1], env))):
        return True
    seen[4] += 1
    if seen[4] == seen[3]:
        seen[:] = t, env, stack, 2 * seen[3], 0
    return False


class _Keys:
    """Structural keys, small ints, of the machine's choice states and of
    the envs and stacks in them (hash-consing: Filliâtre & Conchon, ML
    Workshop 2006).  A closure is the id of its code and its env's key;
    an env's shape is its closures in turn, a stack cell's its
    projection frame or closure, then the key of the rest, and a
    state's the id of its choice node and the keys of its env and
    stack.  None is -1.  An env or cell is keyed once, by id, and kept
    alive, so that no id is reused while the keys stand.  Nothing
    recurses, since envs nest deeply."""

    __slots__ = ("ids", "envs", "stacks", "shapes", "alive", "states")

    def __init__(self) -> None:
        self.ids = {id(None): -1}  # id(env or stack cell) -> key
        self.envs: dict[tuple, int] = {}  # shape -> key, and likewise:
        self.stacks: dict[tuple, int] = {}
        self.shapes: dict[tuple, int] = {}  # for states
        self.alive: list = []
        # state key -> [choice node, env, stack, right branch, left branch,
        # choices left -> node of the walk]
        self.states: list[list] = []

    def state(self, t, env, stack) -> int:
        """The key of the state (t, env, stack) at its choice t."""
        ids = self.ids
        e, s = ids.get(id(env)), ids.get(id(stack))
        shape = (id(t), self._env(env) if e is None else e, self._stack(stack) if s is None else s)
        k = self.shapes.setdefault(shape, len(self.shapes))
        if k == len(self.states):
            self.states.append([t, env, stack, None, None, {}])
        return k

    def _env(self, env) -> int:
        ids, envs = self.ids, self.envs
        todo = [env]
        while todo:
            e = todo[-1]
            if id(e) in ids:
                todo.pop()
                continue
            shape = []
            for code, inner in e:
                k = ids.get(id(inner))
                if k is None:
                    todo.append(inner)
                shape += id(code), k
            if todo[-1] is e:
                ids[id(e)] = envs.setdefault(tuple(shape), len(envs))
                self.alive.append(todo.pop())
        return ids[id(env)]

    def _stack(self, stack) -> int:
        ids, stacks = self.ids, self.stacks
        new = []
        while id(stack) not in ids:
            new.append(stack)
            stack = stack[1]
        for cell in reversed(new):
            a, rest = cell
            shape = (a, ids[id(rest)]) if a.__class__ is int else (id(a[0]), self._env(a[1]), ids[id(rest)])
            ids[id(cell)] = stacks.setdefault(shape, len(stacks))
        self.alive += new
        return ids[id(new[0] if new else stack)]


def enumerate_terminations(
    scheme: Scheme,
    max_choices: int,
    step_budget: int = DEFAULT_STEP_BUDGET,
) -> tuple[dict[int, Fraction], bool]:
    """Exact probability of terminating in exactly i choices, i <=
    max_choices, by exhausting the choice tree.  The second component is
    True when some branch exhausted its deterministic step budget, in
    which case the result is only a certified lower bound.

    The machine is deterministic between choices, so the tree is walked
    as a DAG (memoisation: Michie, Nature 1968).  Its nodes are a choice
    state, found equal to others by its `_Keys`, with the number of
    choices left; a node met again is not walked again, and a state runs
    each branch once, when first needed.  A branch of probability 0 is
    not run.  The walk takes the right branch first, so it runs the
    branches, sets the budget flag, raises the first `ExecError` and
    meets each count's first termination, which fixes the dict order,
    as a right-first walk of the tree does.  Then each node's
    probability, as `int` numerators per denominator, is pushed along
    its edges, parents before children, a choice of bias n/d passing on
    n/d of it on the left and (d - n)/d on the right.  Each count's sum
    becomes one `Fraction` at the end."""
    if max_choices < 0:
        raise ValueError(f"max_choices must be >= 0, got {max_choices}")
    limit = step_budget + 1  # a run may take step_budget steps and is cut at the next one
    start = _compile(scheme)  # alive while keys hold ids of its code
    outcome, t, env, stack, _ = _run(start, (), None, limit)
    if outcome == _UNIT:
        return {0: Fraction(1)}, False
    if outcome != _CHOICE or not max_choices:
        return {}, outcome == _LIMIT
    keys = _Keys()
    states = keys.states
    budget_hit = False
    # A node's edges are (the node reached, or -i for e after i choices
    # in all, and the weight n and d).  A state's branch is stored as -1
    # for e, -2 for omega or a cut, the key of the state it reaches, or,
    # while that has no key yet, (t, env, stack).
    edges: list[list[tuple[int, int, int]]] = [[]]
    finished = []  # nodes, children before parents
    # choices -> denominator -> numerator, keyed as the walk meets each
    # count's first termination
    counts: dict[int, dict[int, int]] = {}
    frames = [[0, keys.state(t, env, stack), max_choices, 0]]  # node, state, choices left, branches done
    while frames:
        f = frames[-1]
        node, s, left, done = f
        rec = states[s]
        t = rec[0]
        d = t[4]
        outs = edges[node]
        used = max_choices - left + 1
        for b in range(done, 2):  # the right branch, then the left
            w = d - t[3] if b == 0 else t[3]
            if not w:
                continue
            out = rec[3 + b]
            if out is None:
                outcome, u, env, stack, _ = _run(t[2 - b], rec[1], rec[2], limit)
                budget_hit |= outcome == _LIMIT
                out = rec[3 + b] = (u, env, stack) if outcome == _CHOICE else -1 if outcome == _UNIT else -2
            if out == -1:
                outs.append((-used, w, d))
                counts.setdefault(used, {})
            elif left > 1 and out != -2:
                if out.__class__ is tuple and left == 2:
                    # A state with one choice left runs its branches here,
                    # unkeyed: that costs what its key would.
                    u, env, stack = out
                    for c, wc in ((u[2], u[4] - u[3]), (u[1], u[3])):
                        if wc:
                            outcome = _run(c, env, stack, limit)[0]
                            budget_hit |= outcome == _LIMIT
                            if outcome == _UNIT:
                                outs.append((-max_choices, w * wc, d * u[4]))
                                counts.setdefault(max_choices, {})
                    continue
                if out.__class__ is tuple:
                    out = rec[3 + b] = keys.state(*out)
                nodes = states[out][5]
                child = nodes.get(left - 1)
                if child is None:
                    child = nodes[left - 1] = len(edges)
                    edges.append([])
                    outs.append((child, w, d))
                    f[3] = b + 1
                    frames.append([child, out, left - 1, 0])
                    break
                outs.append((child, w, d))
        else:
            finished.append(frames.pop()[0])
    del keys, states  # the walk's tables, before the sums
    # Each node's probability, as numerators per denominator, complete
    # once all its parents have passed theirs on.
    mass: list[dict[int, int] | None] = [None] * len(edges)
    mass[0] = {1: 1}
    for node in reversed(finished):
        m = mass[node]
        mass[node] = None
        for to, n, d in edges[node]:
            if to < 0:
                sums = counts[-to]
            else:
                sums = mass[to]
                if sums is None:
                    sums = mass[to] = {}
            for den, num in m.items():
                den *= d
                sums[den] = sums.get(den, 0) + num * n
    probs = {used: sum(Fraction(n, d) for d, n in by_den.items()) for used, by_den in counts.items()}
    return probs, budget_hit


def wilson_interval(k: int, n: int, z: float = 3.0) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion (z = 3 gives a
    99.7% interval)."""
    if n == 0:
        return 0.0, 1.0
    p = k / n
    denom = 1 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = (z / denom) * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n))
    # The endpoints are exact at the boundaries; don't let float rounding
    # pull them inward.
    lo = 0.0 if k == 0 else max(0.0, center - half)
    hi = 1.0 if k == n else min(1.0, center + half)
    return lo, hi


class RunStats:
    def __init__(self, trials: int, terminated: int, diverged: int, censored: int,
                 histogram: dict[int, int], mean_choices: float | None, seed: int,
                 step_cap: int) -> None:
        self.trials = trials
        self.terminated = terminated
        self.diverged = diverged  # reached a bare diverging head: certainly no e
        self.censored = censored  # step cap hit: outcome unknown
        self.histogram = histogram  # choice count -> frequency (terminated runs)
        self.mean_choices = mean_choices
        self.seed = seed
        self.step_cap = step_cap

    @property
    def p_term_estimate(self) -> float:
        return self.terminated / self.trials if self.trials else 0.0

    def p_term_bounds(self, z: float = 3.0) -> tuple[float, float]:
        """Certain terminations give the lower bound; only certain
        divergences reduce the upper bound (censored runs might still
        have terminated)."""
        lo, _ = wilson_interval(self.terminated, self.trials, z)
        _, hi = wilson_interval(self.trials - self.diverged, self.trials, z)
        return lo, hi

    def to_json(self) -> str:
        lo, hi = self.p_term_bounds()
        return json.dumps(
            {
                "trials": self.trials,
                "terminated": self.terminated,
                "diverged": self.diverged,
                "censored": self.censored,
                "histogram": {str(k): v for k, v in sorted(self.histogram.items())},
                "mean_choices": self.mean_choices,
                "p_term_estimate": self.p_term_estimate,
                "p_term_bounds_99_7": [lo, hi],
                "seed": self.seed,
                "step_cap": self.step_cap,
                "algorithm": PRNG_ALGORITHM,
            },
            indent=2,
        )


def monte_carlo(
    scheme: Scheme,
    trials: int,
    step_cap: int = 10**4,
    seed: int = 0,
) -> RunStats:
    """Reproducible estimate of the termination behaviour.  All trials
    draw, one after another, from one `random.Random(seed)`, once per
    choice; a choice is a step like any other.  The seed must be >= 0,
    since `random.Random` draws the same stream for seed and -seed."""
    if trials < 0:
        raise ValueError(f"trials must be >= 0, got {trials}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    terminated = diverged = censored = 0
    histogram: dict[int, int] = {}
    start = _compile(scheme)
    draw = random.Random(seed).random
    for _ in range(trials):
        outcome, _, _, _, choices = _run(start, (), None, step_cap, draw)
        if outcome == _UNIT:
            terminated += 1
            histogram[choices] = histogram.get(choices, 0) + 1
        elif outcome == _OMEGA:
            diverged += 1
        else:
            censored += 1
    total_choices = sum(k * v for k, v in histogram.items())
    return RunStats(
        trials,
        terminated,
        diverged,
        censored,
        histogram,
        total_choices / terminated if terminated else None,
        seed,
        step_cap,
    )
