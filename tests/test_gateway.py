from __future__ import annotations

from fractions import Fraction
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings, strategies as st

from rolechain import errors as err
from rolechain.engine import apply_transaction, verify_evidence, view_key_fault
from rolechain.errors import QueryError, TxError
from rolechain.gateway import (
    KNOWN_FAULTS,
    Admitted,
    Censored,
    Rejected,
    SecurityGateway,
    TokenBucket,
    VisibilityGateway,
    censors,
    compare_responses,
    file_discrepancy,
    sign_request,
    whitelisted,
)
from rolechain.keys import keypair_from_label
from rolechain.ledger import Account
from rolechain.payloads import (
    Claimable,
    DiscrepancyEvent,
    GatewayDirectory,
    ManagementLog,
    OwnBalance,
    OwnHistory,
    Role,
    SetFrozen,
    SignedQueryResponse,
    SupplyView,
    Transaction,
    Transfer,
    ValidationServerAddress,
    ValidatorRecord,
    sign_response,
    sign_transaction,
)

from conftest import World, make_world
from test_payloads import ALL_PAYLOADS


def _gateway_world() -> World:
    roles = {
        "mgr": {Role.PLATFORM_MANAGER},
        "sec": {Role.SYSTEM_SECURITY},
        "bank": {Role.CURRENCY_MANAGER},
        "alice": {Role.USER},
        "bob": {Role.USER},
        "v0": {Role.VALIDATOR},
        "v1": {Role.VALIDATOR},
    }
    world = make_world(roles, balances={"alice": 100, "bob": 7})
    for name in ("v0", "v1"):
        world.keys[f"{name}.view"] = keypair_from_label("mock", f"{name}.view", 0)
        record = ValidatorRecord(
            world.aid(name),
            (f"sim://{name}/sec0",),
            (f"sim://{name}/vis0",),
            f"sim://{name}/val",
            world.keys[f"{name}.view"].public_key,
            f"ops@{name}",
        )
        world.state.validator_registry[world.aid(name)] = record
    return world


def _add_validator(world: World, name: str) -> None:
    """A validator account ``name`` with a registered view key."""
    world.keys[name] = keypair_from_label("mock", name, 0)
    world.ids[name] = world.keys[name].account_id
    world.keys[f"{name}.view"] = keypair_from_label("mock", f"{name}.view", 0)
    world.state.add_account(Account(world.aid(name), world.keys[name].public_key, {Role.VALIDATOR}))
    world.state.validator_registry[world.aid(name)] = ValidatorRecord(
        world.aid(name), ("s",), ("v",), "val", world.keys[f"{name}.view"].public_key, "ops"
    )


def _gateways(world: World, name: str, faults=None):
    sec = SecurityGateway(world.aid(name), set(faults or ()))
    vis = VisibilityGateway(world.aid(name), world.keys[f"{name}.view"], set(faults or ()))
    return sec, vis


def _query(world: World, vis: VisibilityGateway, requester: str, query):
    request = sign_request(world.kp(requester), vis.issue_challenge(), query, world.aid(requester))
    return vis.answer(world.state, request)


# --- token bucket ----------------------------------------------------------------

def test_bucket_capacity_then_throttle():
    bucket = TokenBucket(Fraction(10), 0)
    results = [bucket.take(0, 10, Fraction(1)) for _ in range(11)]
    assert results == [True] * 10 + [False]


def test_bucket_refills_per_tick():
    bucket = TokenBucket(Fraction(0), 0)
    assert not bucket.take(0, 10, Fraction(1))
    assert bucket.take(1, 10, Fraction(1))
    assert not bucket.take(1, 10, Fraction(1))


def test_bucket_cap_not_exceeded():
    bucket = TokenBucket(Fraction(10), 0)
    bucket.take(100, 10, Fraction(1))
    assert bucket.tokens == Fraction(9)


# --- admission ---------------------------------------------------------------------

def test_admit_valid_transfer():
    world = _gateway_world()
    sec, _ = _gateways(world, "v0")
    tx = world.tx("alice", Transfer(world.aid("bob"), 5))
    outcome = sec.admit(world.state, tx.encode(), tick=1)
    assert isinstance(outcome, Admitted)
    assert list(sec.pool.values()) == [tx]


def test_admit_rejects_garbage():
    world = _gateway_world()
    sec, _ = _gateways(world, "v0")
    outcome = sec.admit(world.state, b"nonsense", tick=1)
    assert isinstance(outcome, Rejected) and outcome.reason == err.MALFORMED


@pytest.mark.parametrize(
    "as_type, admitted",
    [
        (bytes, True),
        (bytearray, True),
        (memoryview, True),
        (lambda frame: frame.decode("latin-1"), False),
        (lambda frame: None, False),
        (lambda frame: int.from_bytes(frame, "big"), False),
        (list, False),
    ],
    ids=["bytes", "bytearray", "memoryview", "str", "None", "int", "list"],
)
def test_admission_takes_bytes_like_frames_and_rejects_other_types(as_type, admitted):
    world = _gateway_world()
    sec, _ = _gateways(world, "v0")
    tx = world.tx("alice", Transfer(world.aid("bob"), 5))
    outcome = sec.admit(world.state, as_type(tx.encode()), tick=1)
    if not admitted:
        assert outcome == Rejected(err.MALFORMED)
        assert sec.pool == {}
        return
    # admitted exactly as the bytes frame is: every key and field is bytes
    assert isinstance(outcome, Admitted) and outcome.tx == tx
    [(key, copy)] = sec.pool.items()
    assert type(key) is bytes and key == tx.encode()
    assert copy is outcome.tx and copy.encode() is key
    assert type(copy.sender) is bytes and type(copy.signature) is bytes
    assert type(copy.payload.to) is bytes


def test_admit_rejects_a_released_memoryview():
    world = _gateway_world()
    sec, _ = _gateways(world, "v0")
    frame = memoryview(world.tx("alice", Transfer(world.aid("bob"), 5)).encode())
    frame.release()
    assert sec.admit(world.state, frame, tick=1) == Rejected(err.MALFORMED)


def test_admit_rejects_unknown_sender():
    world = _gateway_world()
    sec, _ = _gateways(world, "v0")
    ghost = keypair_from_label("mock", "ghost", 0)
    tx = sign_transaction(ghost, ghost.account_id, 0, Transfer(world.aid("bob"), 1))
    outcome = sec.admit(world.state, tx.encode(), tick=1)
    assert isinstance(outcome, Rejected) and outcome.reason == err.UNKNOWN_SENDER


def test_admit_rejects_roleless_sender():
    world = _gateway_world()
    world.state.set_roles(world.state.accounts[world.aid("alice")], frozenset())
    sec, _ = _gateways(world, "v0")
    tx = world.tx("alice", Transfer(world.aid("bob"), 1))
    outcome = sec.admit(world.state, tx.encode(), tick=1)
    assert isinstance(outcome, Rejected) and outcome.reason == err.NO_ROLE


def test_admit_rejects_bad_signature():
    world = _gateway_world()
    sec, _ = _gateways(world, "v0")
    tx = world.tx("alice", Transfer(world.aid("bob"), 1))
    forged = Transaction(tx.sender, tx.nonce, tx.payload, b"\x00" * 32)
    outcome = sec.admit(world.state, forged.encode(), tick=1)
    assert isinstance(outcome, Rejected) and outcome.reason == err.BAD_SIGNATURE


def test_admit_throttles_eleventh_tx_in_one_tick():
    world = _gateway_world()
    sec, _ = _gateways(world, "v0")
    outcomes = []
    for nonce in range(11):
        tx = world.tx("alice", Transfer(world.aid("bob"), 1), nonce=nonce)
        outcomes.append(sec.admit(world.state, tx.encode(), tick=3))
    assert all(isinstance(o, Admitted) for o in outcomes[:10])
    assert isinstance(outcomes[10], Rejected) and outcomes[10].reason == err.THROTTLED


def test_throttled_sender_recovers_next_tick():
    world = _gateway_world()
    sec, _ = _gateways(world, "v0")
    for nonce in range(11):
        sec.admit(world.state, world.tx("alice", Transfer(world.aid("bob"), 1), nonce=nonce).encode(), tick=3)
    retry = sec.admit(world.state, world.tx("alice", Transfer(world.aid("bob"), 1), nonce=11).encode(), tick=4)
    assert isinstance(retry, Admitted)


def test_whitelisted_sender_never_throttled():
    world = _gateway_world()
    world.state.policies["rate.whitelist"].value = world.aid("alice")
    sec, _ = _gateways(world, "v0")
    outcomes = [
        sec.admit(world.state, world.tx("alice", Transfer(world.aid("bob"), 1), nonce=n).encode(), tick=5)
        for n in range(50)
    ]
    assert all(isinstance(o, Admitted) for o in outcomes)


def test_whitelist_edits_take_effect_on_a_gateway_already_in_use():
    world = _gateway_world()
    sec, _ = _gateways(world, "v0")

    def burst(name: str, tick: int) -> int:
        """How many of 20 submissions in one tick get through."""
        txs = [world.tx(name, Transfer(world.aid("mgr"), 1), nonce=tick * 100 + n) for n in range(20)]
        return sum(isinstance(sec.admit(world.state, tx.encode(), tick), Admitted) for tx in txs)

    policy = world.state.policies["rate.whitelist"]
    policy.value = world.aid("alice")
    assert burst("alice", 1) == 20
    policy.value = world.aid("bob") + world.aid("alice")
    assert burst("alice", 2) == 20 and burst("bob", 2) == 20
    policy.value = world.aid("bob")
    assert burst("alice", 3) == 10
    policy.value = b""
    assert burst("bob", 4) == 10


def test_an_id_straddling_two_whitelist_entries_is_not_whitelisted():
    world = _gateway_world()
    alice = world.aid("alice")
    # alice's id sits at byte 16: the tail of the first entry and the head of the second
    world.state.policies["rate.whitelist"].value = bytes(16) + alice + bytes(16)
    sec, _ = _gateways(world, "v0")
    txs = [world.tx("alice", Transfer(world.aid("bob"), 1), nonce=n) for n in range(20)]
    assert sum(isinstance(sec.admit(world.state, tx.encode(), tick=1), Admitted) for tx in txs) == 10


@given(
    entries=st.lists(st.binary(min_size=32, max_size=32), max_size=6),
    tail=st.binary(max_size=31),
    sender=st.binary(min_size=32, max_size=32),
    at=st.integers(0, 6 * 32),
)
def test_whitelisted_is_membership_among_the_aligned_ids(entries, tail, sender, at):
    whitelist = b"".join(entries) + tail
    # plant the sender at any offset, aligned or not
    planted = whitelist[:at] + sender + whitelist[at + 32 :]
    for wl in (whitelist, planted):
        assert whitelisted(wl, sender) == (sender in {wl[i : i + 32] for i in range(0, len(wl), 32)})


def test_pool_is_keyed_by_the_admitted_frame():
    world = _gateway_world()
    sec, _ = _gateways(world, "v0")
    txs = [world.tx("alice", Transfer(world.aid("bob"), 1), nonce=n) for n in range(3)]
    frames = [tx.encode() for tx in txs]
    for frame in frames:
        assert isinstance(sec.admit(world.state, frame, tick=1), Admitted)
    # the key is the frame object the copy keeps as its encoding: no tx id is hashed
    assert list(sec.pool) == frames
    assert all(key is copy.encode() and copy._tx_id is None for key, copy in sec.pool.items())
    sec.drop_included([bytes(frames[1]), frames[0]])
    assert list(sec.pool) == [frames[2]]


def test_censoring_gateway_drops_silently():
    world = _gateway_world()
    sec, _ = _gateways(world, "v0", faults={"censor_all"})
    tx = world.tx("alice", Transfer(world.aid("bob"), 1))
    outcome = sec.admit(world.state, tx.encode(), tick=1)
    assert isinstance(outcome, Censored)
    assert list(sec.pool.values()) == []


@settings(max_examples=150, deadline=None)
@given(
    faults=st.sets(st.sampled_from(sorted(KNOWN_FAULTS))),
    sender=st.sampled_from(["alice", "mgr", "v0", "v1"]),
    payload=st.sampled_from(ALL_PAYLOADS),
    publisher=st.sampled_from(["v0", "v1"]),
)
def test_admission_and_publication_censor_by_one_rule(faults, sender, payload, publisher):
    world = _gateway_world()
    tx = world.tx(sender, payload)
    discrepancy = isinstance(payload, DiscrepancyEvent)
    # what admission and a publisher each censored when each had a rule of its own
    admission_censors = "censor_all" in faults or ("censor_discrepancy" in faults and discrepancy)
    publisher_censors = ("censor_all" in faults and sender != publisher) or ("censor_discrepancy" in faults and discrepancy)
    sec, _ = _gateways(world, "v0", faults)
    assert isinstance(sec.admit(world.state, tx.encode(), tick=1), Censored) == admission_censors
    assert censors(faults, tx) == admission_censors
    assert censors(faults, tx, world.aid(publisher)) == publisher_censors
    if sender == publisher and not discrepancy:  # its own transactions, even under censor_all
        assert not censors(faults, tx, world.aid(publisher))


# --- query authorization -------------------------------------------------------------

def test_own_balance_allowed():
    world = _gateway_world()
    _, vis = _gateways(world, "v0")
    response = _query(world, vis, "alice", OwnBalance(world.aid("alice")))
    assert view_key_fault(world.state, response) is None
    from reference import Reader

    assert Reader(response.result).u64() == 100


def test_foreign_balance_denied():
    world = _gateway_world()
    _, vis = _gateways(world, "v0")
    with pytest.raises(QueryError) as exc:
        _query(world, vis, "alice", OwnBalance(world.aid("bob")))
    assert exc.value.code == err.NOT_OWNER


def test_management_log_public_and_shows_freeze():
    world = _gateway_world()
    world.apply_ok("sec", SetFrozen(world.aid("bob"), True))
    _, vis = _gateways(world, "v0")
    response = _query(world, vis, "alice", ManagementLog(0, 10))
    assert b"set_frozen" in response.result


def test_supply_and_directory_public():
    world = _gateway_world()
    _, vis = _gateways(world, "v0")
    _query(world, vis, "alice", SupplyView())
    directory = _query(world, vis, "alice", GatewayDirectory())
    assert b"sim://v0/vis0" in directory.result
    # validation server addresses stay out of the public directory
    assert b"sim://v0/val" not in directory.result


def test_validation_server_gated_to_validators():
    world = _gateway_world()
    _, vis = _gateways(world, "v0")
    with pytest.raises(QueryError) as exc:
        _query(world, vis, "alice", ValidationServerAddress(world.aid("v1")))
    assert exc.value.code == err.NOT_VALIDATOR
    response = _query(world, vis, "v1", ValidationServerAddress(world.aid("v0")))
    assert b"sim://v0/val" in response.result


def test_challenge_single_use():
    world = _gateway_world()
    _, vis = _gateways(world, "v0")
    challenge = vis.issue_challenge()
    request = sign_request(world.kp("alice"), challenge, OwnBalance(world.aid("alice")), world.aid("alice"))
    vis.answer(world.state, request)
    with pytest.raises(QueryError) as exc:
        vis.answer(world.state, request)
    assert exc.value.code == err.BAD_CHALLENGE


def test_challenge_signature_must_match_key():
    world = _gateway_world()
    _, vis = _gateways(world, "v0")
    challenge = vis.issue_challenge()
    request = sign_request(world.kp("bob"), challenge, OwnBalance(world.aid("alice")), world.aid("bob"))
    tampered = request.__class__(world.aid("alice"), challenge, request.challenge_signature, request.echo)
    with pytest.raises(QueryError) as exc:
        vis.answer(world.state, tampered)
    assert exc.value.code == err.BAD_CHALLENGE


def test_history_visible_to_owner_only():
    world = _gateway_world()
    world.apply_ok("alice", Transfer(world.aid("bob"), 5))
    _, vis = _gateways(world, "v0")
    response = _query(world, vis, "bob", OwnHistory(world.aid("bob")))
    assert b"transfer" in response.result
    with pytest.raises(QueryError):
        _query(world, vis, "bob", OwnHistory(world.aid("alice")))


# --- fault injection, comparison, evidence --------------------------------------------

def _two_answers(world, fault=("corrupt_results",)):
    _, honest = _gateways(world, "v0")
    _, lying = _gateways(world, "v1", faults=fault)
    query = OwnBalance(world.aid("alice"))
    return (
        _query(world, honest, "alice", query),
        _query(world, lying, "alice", query),
    )


def test_corrupt_gateway_still_signs():
    world = _gateway_world()
    good, bad = _two_answers(world)
    assert view_key_fault(world.state, bad) is None  # signature fine, content wrong
    assert good.result != bad.result


def test_wrong_view_key_response_discarded():
    world = _gateway_world()
    good, bad = _two_answers(world)
    forged = SignedQueryResponse(bad.validator, bad.echo, bad.result, bad.as_of_height, b"\x00" * 32)
    assert view_key_fault(world.state, forged) is not None
    world.state.height = 50
    # the forged one is discarded; a single valid response is not comparable
    with pytest.raises(QueryError) as exc:
        compare_responses(world.state, [good, forged])
    assert exc.value.code == err.INSUFFICIENT_RESPONSES


def test_identical_answers_consistent():
    world = _gateway_world()
    _, vis_a = _gateways(world, "v0")
    _, vis_b = _gateways(world, "v1")
    query = OwnBalance(world.aid("alice"))
    responses = [_query(world, vis_a, "alice", query), _query(world, vis_b, "alice", query)]
    world.state.height = 50
    assert compare_responses(world.state, responses) is None


def test_discrepancy_detected_when_old_enough():
    world = _gateway_world()
    responses = list(_two_answers(world))
    world.state.height = 50  # answers are as_of 0, far older than the window
    evidence = compare_responses(world.state, responses)
    assert isinstance(evidence, DiscrepancyEvent)
    assert {evidence.first.validator, evidence.second.validator} == {world.aid("v0"), world.aid("v1")}
    assert verify_evidence(world.state, evidence) is None


def test_recent_discrepancy_within_window_is_consistent():
    world = _gateway_world()
    responses = list(_two_answers(world))
    world.state.height = 2  # the head has moved only 2 blocks; the delay window is 3
    assert compare_responses(world.state, responses) is None


def test_file_discrepancy_builds_event_tx():
    world = _gateway_world()
    responses = list(_two_answers(world))
    world.state.height = 50
    evidence = compare_responses(world.state, responses)
    nonce = world.state.accounts[world.aid("alice")].nonce
    tx = file_discrepancy(world.state, evidence, world.kp("alice"), nonce, world.aid("alice"))
    receipt = apply_transaction(world.state, tx)
    assert receipt.ok and receipt.kind == "discrepancy_event"
    assert any(e.kind == "discrepancy_event" for e in world.state.management_log())


def test_forged_evidence_rejected():
    world = _gateway_world()
    responses = list(_two_answers(world))
    world.state.height = 50
    evidence = compare_responses(world.state, responses)
    forged = DiscrepancyEvent(
        evidence.first,
        SignedQueryResponse(
            evidence.second.validator,
            evidence.second.echo,
            evidence.second.result + b"!",
            evidence.second.as_of_height,
            evidence.second.signature,
        ),
    )
    with pytest.raises(TxError) as exc:
        file_discrepancy(world.state, forged, world.kp("alice"), 0, world.aid("alice"))
    assert exc.value.code == err.INVALID_EVIDENCE


def test_evidence_sound_against_ground_truth():
    world = _gateway_world()
    good, bad = _two_answers(world)
    world.state.height = 50
    evidence = compare_responses(world.state, [good, bad])
    # at least one side of the pair provably differs from the honest answer
    from rolechain.gateway import compute_result

    honest = compute_result(world.state, OwnBalance(world.aid("alice")))
    assert evidence.first.result != honest or evidence.second.result != honest


def test_outlier_among_four_responses_is_named():
    world = _gateway_world()
    # add two more honest validators
    for name in ("v2", "v3"):
        _add_validator(world, name)
    query = OwnBalance(world.aid("alice"))
    responses = []
    for name in ("v0", "v2", "v3"):
        _, vis = _gateways(world, name)
        responses.append(_query(world, vis, "alice", query))
    _, liar = _gateways(world, "v1", faults={"corrupt_results"})
    outlier = _query(world, liar, "alice", query)
    responses.append(outlier)
    world.state.height = 50
    evidence = compare_responses(world.state, responses)
    assert evidence is not None
    # any conflicting pair must include the one lying validator
    assert world.aid("v1") in (evidence.first.validator, evidence.second.validator)


# --- the gateways judge with the chain's rules ------------------------------------------

HEAD = 10  # the delay window is 3, so answers as of 7 or older are comparable
COMPARE_WORLD = _gateway_world()
for _name in ("v2", "v3"):
    _add_validator(COMPARE_WORLD, _name)
COMPARE_WORLD.state.height = HEAD
# (validator, echo, result, as_of_height, signed under its view key)
ANSWERS = st.tuples(
    st.sampled_from(["v0", "v1", "v2", "v3"]),
    st.sampled_from([b"q1", b"q2"]),
    st.sampled_from([b"r1", b"r2", b"r3"]),
    st.integers(HEAD - 5, HEAD),
    st.booleans(),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(ANSWERS, min_size=2, max_size=6))
def test_compare_responses_returns_what_verify_evidence_accepts(answers):
    """The comparator's verdict equals a brute force over ``verify_evidence``:
    too few validly signed validators raise, no accepted pair is None, and
    otherwise the evidence is the first accepted pair in (validator, result)
    order."""
    world = COMPARE_WORLD
    responses = []
    for name, echo, result, as_of, honest in answers:
        signer = world.kp(f"{name}.view") if honest else world.kp(name)
        responses.append(sign_response(signer, world.aid(name), echo, result, as_of))
    valid = [r for r in responses if view_key_fault(world.state, r) is None]
    if len({r.validator for r in valid}) < 2:
        with pytest.raises(QueryError) as exc:
            compare_responses(world.state, responses)
        assert exc.value.code == err.INSUFFICIENT_RESPONSES
        return
    evidence = compare_responses(world.state, responses)
    accepted = [
        DiscrepancyEvent(a, b)
        for a, b in permutations(responses, 2)
        if verify_evidence(world.state, DiscrepancyEvent(a, b)) is None
    ]
    if not accepted:
        assert evidence is None
        return
    ordered = sorted(valid, key=lambda r: (r.validator, r.result))
    first = next(
        DiscrepancyEvent(a, b)
        for a, b in combinations(ordered, 2)
        if verify_evidence(world.state, DiscrepancyEvent(a, b)) is None
    )
    assert evidence == first and evidence in accepted


ENVELOPE_CODES = {err.UNKNOWN_SENDER, err.NO_ROLE, err.BAD_SIGNATURE}


@settings(max_examples=200, deadline=None)
@given(
    unknown=st.booleans(),
    roleless=st.booleans(),
    forged=st.booleans(),
    rotated=st.booleans(),
    signed_with_new_key=st.booleans(),
    stale_nonce=st.booleans(),
)
def test_admission_and_apply_name_the_same_envelope_fault(
    unknown, roleless, forged, rotated, signed_with_new_key, stale_nonce
):
    """Where a security gateway refuses an envelope, ``apply_transaction`` at
    the same state returns the same code; where it admits, apply names no
    envelope fault but, at most, a stale nonce."""
    world = _gateway_world()
    sec, _ = _gateways(world, "v0")
    alice = world.state.accounts[world.aid("alice")]
    alice.nonce = 3
    signer = world.kp("alice")
    if roleless:
        world.state.set_roles(alice, frozenset())
    if rotated:  # a rotation that has committed: the id stays, the key is new
        fresh = keypair_from_label("mock", "alice-fresh", 0)
        alice.public_key = fresh.public_key
        if signed_with_new_key:
            signer = fresh
    sender = keypair_from_label("mock", "ghost", 0).account_id if unknown else world.aid("alice")
    tx = sign_transaction(signer, sender, 2 if stale_nonce else 3, Transfer(world.aid("bob"), 1))
    if forged:
        tx = Transaction(tx.sender, tx.nonce, tx.payload, bytes(len(tx.signature)))
    outcome = sec.admit(world.state, tx.encode(), tick=1)
    receipt = apply_transaction(world.state, tx)
    if isinstance(outcome, Rejected):
        assert outcome.reason in ENVELOPE_CODES
        assert (receipt.kind, receipt.error) == ("unknown", outcome.reason)
    else:
        assert isinstance(outcome, Admitted)
        assert receipt.error not in ENVELOPE_CODES
        assert (receipt.error == err.BAD_NONCE) == stale_nonce
