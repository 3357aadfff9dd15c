import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gossipsim.streams import StreamPool, stream, tag_code


def test_same_key_same_draws():
    a = stream(5, node=2, round_=9, tag="grad").standard_normal(100)
    b = stream(5, node=2, round_=9, tag="grad").standard_normal(100)
    assert np.array_equal(a, b)


@pytest.mark.parametrize(
    "other",
    [
        dict(node=3, round_=9, tag="grad"),
        dict(node=2, round_=10, tag="grad"),
        dict(node=2, round_=9, tag="compress"),
    ],
)
def test_different_keys_differ(other):
    a = stream(5, node=2, round_=9, tag="grad").standard_normal(64)
    b = stream(5, **other).standard_normal(64)
    assert not np.array_equal(a, b)


def test_streams_are_decorrelated():
    a = stream(1, node=0, round_=0).standard_normal(20000)
    b = stream(1, node=1, round_=0).standard_normal(20000)
    assert abs(np.corrcoef(a, b)[0, 1]) < 0.03


def test_pool_matches_fresh_stream():
    pool = StreamPool()
    for node in range(4):
        got = pool.get(11, node=node, round_=7, tag="compress").random(33)
        want = stream(11, node=node, round_=7, tag="compress").random(33)
        assert np.array_equal(got, want)


def test_pool_accepts_precomputed_tag_code():
    pool = StreamPool()
    code = tag_code("grad")
    a = pool.get(3, node=1, round_=2, tag=code).standard_normal(8)
    b = stream(3, node=1, round_=2, tag="grad").standard_normal(8)
    assert np.array_equal(a, b)


def test_long_tags_are_hashed_deterministically():
    assert tag_code("a-very-long-purpose-tag") == tag_code("a-very-long-purpose-tag")
    assert tag_code("short") == int.from_bytes(b"short", "little")


def test_node_streams_match_individual_derivation():
    # per-node streams held side by side and drawn from in turns, last node
    # first, each give the draws of that node's stream derived alone
    batch = [stream(4, node=i, round_=5, tag="grad") for i in range(3)]
    got = {i: [] for i in range(3)}
    for _ in range(2):
        for i in reversed(range(3)):
            got[i].append(batch[i].random(3))
    for i in range(3):
        want = stream(4, node=i, round_=5, tag="grad").random(6)
        assert np.array_equal(np.concatenate(got[i]), want)


def test_negative_seed_rejected():
    with pytest.raises(ValueError):
        stream(-1)


U64 = st.integers(0, 2**64 - 1)
ADDRESSES = st.tuples(U64, U64, U64, st.text(max_size=12))


def _consume(rng, kind, count):
    """Leave ``rng`` part-way through its stream in one of three ways."""
    if kind == "odd_uint32":
        for _ in range(2 * count + 1):
            rng.integers(2**31)
        assert rng.bit_generator.state["has_uint32"] == 1
    elif kind == "part_buffer":
        rng.random(4 * count + 1)
        assert rng.bit_generator.state["buffer_pos"] < 4
    else:
        rng.standard_normal(count)


DRAWS = {
    "random": lambda rng: rng.random(9),
    "standard_normal": lambda rng: rng.standard_normal(9),
    "integers": lambda rng: rng.integers(1000, size=7),
    "choice": lambda rng: rng.choice(50, size=6, replace=False),
}


@settings(max_examples=300, deadline=None)
@given(
    address=ADDRESSES,
    before=ADDRESSES,
    same_address=st.booleans(),
    int_tag=st.booleans(),
    prior=st.sampled_from(["odd_uint32", "part_buffer", "normals"]),
    count=st.integers(0, 5),
    draw=st.sampled_from(sorted(DRAWS)),
)
def test_pool_draws_do_not_depend_on_prior_consumption(
    address, before, same_address, int_tag, prior, count, draw
):
    seed, node, round_, tag = address
    pool = StreamPool()
    if same_address:
        before = address
    b_seed, b_node, b_round, b_tag = before
    _consume(pool.get(b_seed, node=b_node, round_=b_round, tag=b_tag), prior, count)
    key = tag_code(tag) if int_tag else tag
    got = DRAWS[draw](pool.get(seed, node=node, round_=round_, tag=key))
    want = DRAWS[draw](stream(seed, node=node, round_=round_, tag=tag))
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@settings(max_examples=100, deadline=None)
@given(address=ADDRESSES, draw=st.sampled_from(sorted(DRAWS)))
def test_stream_is_the_documented_philox_address(address, draw):
    # key (seed, node), starting counter (0, 0, round, tag), as the module says
    seed, node, round_, tag = address
    philox = np.random.Philox(counter=np.array([0, 0, round_, tag_code(tag)], dtype=np.uint64),
                              key=np.array([seed, node], dtype=np.uint64))
    got = DRAWS[draw](stream(seed, node=node, round_=round_, tag=tag))
    want = DRAWS[draw](np.random.Generator(philox))
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
