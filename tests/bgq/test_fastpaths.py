"""The BG/Q model's memoized routes and cached core shares.

Both caches must be invisible: a memoized route equals a fresh
computation and the HPM counters still count every call; a cached
``Core.rate_of`` equals the uncached formula bit for bit across any
sequence of membership and weight changes.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgq import Core, Torus
from repro.bgq.params import BGQParams
from repro.sim import Environment

SHAPE = (2, 2, 3, 2, 2)


def test_route_memo_equals_fresh_computation_for_every_pair():
    memo = Torus(SHAPE)
    for a in range(memo.nnodes):
        for b in range(memo.nnodes):
            first = memo.route(a, b)
            # A fresh torus has an empty memo: this is a computation.
            assert first == Torus(SHAPE).route(a, b)
            # An explicit identity order bypasses the memo entirely.
            assert first == memo.route(a, b, dim_order=range(memo.ndim))


def test_repeated_route_calls_return_the_same_immutable_tuple():
    t = Torus(SHAPE)
    r1 = t.route(0, t.nnodes - 1)
    r2 = t.route(0, t.nnodes - 1)
    assert r1 is r2
    assert isinstance(r1, tuple)
    assert all(isinstance(link, tuple) for link in r1)
    assert t.route(3, 3) == ()


def test_adaptive_orders_are_not_memoized():
    t = Torus(SHAPE)
    a, b = 0, t.nnodes - 1
    t.route(a, b, dim_order=[4, 3, 2, 1, 0])
    assert t._routes == {}
    assert t.route(a, b, dim_order=[4, 3, 2, 1, 0]) != t.route(a, b)
    assert set(t._routes) == {(a, b)}


def test_route_counters_count_every_call():
    t = Torus(SHAPE)
    a, b = 0, t.nnodes - 1
    hops = t.hops(a, b)
    for _ in range(3):
        t.route(a, b)
    t.route(a, b, dim_order=[4, 3, 2, 1, 0])
    t.route(5, 5)
    assert t.routes_computed == 5
    assert t.hops_routed == 4 * hops


def _uncached_rate(core: Core, member) -> float:
    """``Core.rate_of`` as written before the share cache."""
    w = member.weight
    if w <= 0:
        return 0.0
    p = core.params
    members = core._members.values()
    n_eff = sum(m.weight for m in members)
    cap = p.thread_issue_cap
    per_unit = p.base_ipc / (1.0 + max(0.0, n_eff - 1.0) * p.smt_interference)
    rate = min(w * per_unit, cap * min(1.0, w))
    total = 0.0
    for m in members:
        mw = m.weight
        total += min(mw * per_unit, cap * min(1.0, mw))
    width = p.core_issue_width
    if total > width:
        rate *= width / total
    return rate


weights = st.one_of(
    st.sampled_from([0.0, 1.0, 1.0 / 60.0, 0.5, 2.0]),
    st.floats(min_value=0.0, max_value=3.0, allow_nan=False),
)
ops = st.lists(
    st.tuples(
        st.sampled_from(["register", "unregister", "set_weight"]),
        st.integers(min_value=0, max_value=7),
        weights,
    ),
    min_size=1,
    max_size=40,
)


@settings(max_examples=150, deadline=None)
@given(ops=ops, tight=st.booleans())
def test_cached_rate_of_is_bit_identical_to_uncached(ops, tight):
    # A narrow issue width makes the aggregate cap bind often.
    params = BGQParams(core_issue_width=1.0) if tight else BGQParams()
    core = Core(Environment(), params=params)
    members = []
    for op, idx, w in ops:
        if op == "register" or not members:
            members.append(core.register(w))
        elif op == "unregister":
            core.unregister(members.pop(idx % len(members)))
        else:
            core.set_weight(members[idx % len(members)], w)
        # Twice per member: the second read is served from the cache.
        for _ in range(2):
            for m in members:
                assert core.rate_of(m).hex() == _uncached_rate(core, m).hex()
