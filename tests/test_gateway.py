from __future__ import annotations

from fractions import Fraction

import pytest

from rolechain import errors as err
from rolechain.engine import verify_evidence
from rolechain.errors import QueryError, TxError
from rolechain.gateway import (
    Admitted,
    Censored,
    Rejected,
    SecurityGateway,
    TokenBucket,
    VisibilityGateway,
    compare_responses,
    file_discrepancy,
    sign_request,
    verify_response,
)
from rolechain.keys import keypair_from_label
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
    Transfer,
    ValidationServerAddress,
    ValidatorRecord,
)

from conftest import World, make_world


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


def _gateways(world: World, name: str, faults=None):
    sec = SecurityGateway(world.aid(name), set(faults or ()))
    vis = VisibilityGateway(world.aid(name), world.keys[f"{name}.view"], set(faults or ()))
    return sec, vis


def _query(world: World, vis: VisibilityGateway, requester: str, query):
    request = sign_request(world.kp(requester), vis.issue_challenge(), query)
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


def test_admit_rejects_unknown_sender():
    world = _gateway_world()
    sec, _ = _gateways(world, "v0")
    ghost = keypair_from_label("mock", "ghost", 0)
    from rolechain.payloads import sign_transaction

    tx = sign_transaction(ghost, ghost.account_id, 0, Transfer(world.aid("bob"), 1))
    outcome = sec.admit(world.state, tx.encode(), tick=1)
    assert isinstance(outcome, Rejected) and outcome.reason == err.UNKNOWN_SENDER


def test_admit_rejects_roleless_sender():
    world = _gateway_world()
    world.state.accounts[world.aid("alice")].roles = frozenset()
    sec, _ = _gateways(world, "v0")
    tx = world.tx("alice", Transfer(world.aid("bob"), 1))
    outcome = sec.admit(world.state, tx.encode(), tick=1)
    assert isinstance(outcome, Rejected) and outcome.reason == err.NO_ROLE


def test_admit_rejects_bad_signature():
    world = _gateway_world()
    sec, _ = _gateways(world, "v0")
    tx = world.tx("alice", Transfer(world.aid("bob"), 1))
    from rolechain.payloads import Transaction

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


def test_censoring_gateway_drops_silently():
    world = _gateway_world()
    sec, _ = _gateways(world, "v0", faults={"censor_all"})
    tx = world.tx("alice", Transfer(world.aid("bob"), 1))
    outcome = sec.admit(world.state, tx.encode(), tick=1)
    assert isinstance(outcome, Censored)
    assert list(sec.pool.values()) == []


# --- query authorization -------------------------------------------------------------

def test_own_balance_allowed():
    world = _gateway_world()
    _, vis = _gateways(world, "v0")
    response = _query(world, vis, "alice", OwnBalance(world.aid("alice")))
    assert verify_response(world.state, response)
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
    request = sign_request(world.kp("alice"), challenge, OwnBalance(world.aid("alice")))
    vis.answer(world.state, request)
    with pytest.raises(QueryError) as exc:
        vis.answer(world.state, request)
    assert exc.value.code == err.BAD_CHALLENGE


def test_challenge_signature_must_match_key():
    world = _gateway_world()
    _, vis = _gateways(world, "v0")
    challenge = vis.issue_challenge()
    request = sign_request(world.kp("bob"), challenge, OwnBalance(world.aid("alice")))
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
    assert verify_response(world.state, bad)  # signature fine, content wrong
    assert good.result != bad.result


def test_wrong_view_key_response_discarded():
    world = _gateway_world()
    good, bad = _two_answers(world)
    forged = SignedQueryResponse(bad.validator, bad.echo, bad.result, bad.as_of_height, b"\x00" * 32)
    assert not verify_response(world.state, forged)
    world.state.height = 50
    # the forged one is discarded; a single valid response is not comparable
    with pytest.raises(QueryError) as exc:
        compare_responses(world.state, [good, forged], head=50)
    assert exc.value.code == err.INSUFFICIENT_RESPONSES


def test_identical_answers_consistent():
    world = _gateway_world()
    _, vis_a = _gateways(world, "v0")
    _, vis_b = _gateways(world, "v1")
    query = OwnBalance(world.aid("alice"))
    responses = [_query(world, vis_a, "alice", query), _query(world, vis_b, "alice", query)]
    world.state.height = 50
    assert compare_responses(world.state, responses, head=50) is None


def test_discrepancy_detected_when_old_enough():
    world = _gateway_world()
    responses = list(_two_answers(world))
    world.state.height = 50  # answers are as_of 0, far older than the window
    evidence = compare_responses(world.state, responses, head=50)
    assert isinstance(evidence, DiscrepancyEvent)
    assert {evidence.first.validator, evidence.second.validator} == {world.aid("v0"), world.aid("v1")}
    assert verify_evidence(world.state, evidence) is None


def test_recent_discrepancy_within_window_is_consistent():
    world = _gateway_world()
    responses = list(_two_answers(world))
    # head has moved only 2 blocks; delay window is 3
    assert compare_responses(world.state, responses, head=2) is None


def test_file_discrepancy_builds_event_tx():
    world = _gateway_world()
    responses = list(_two_answers(world))
    world.state.height = 50
    evidence = compare_responses(world.state, responses, head=50)
    nonce = world.state.accounts[world.aid("alice")].nonce
    tx = file_discrepancy(world.state, evidence, world.kp("alice"), nonce)
    from rolechain.engine import apply_transaction

    receipt = apply_transaction(world.state, tx)
    assert receipt.ok and receipt.kind == "discrepancy_event"
    assert any(e.kind == "discrepancy_event" for e in world.state.management_log())


def test_forged_evidence_rejected():
    world = _gateway_world()
    responses = list(_two_answers(world))
    world.state.height = 50
    evidence = compare_responses(world.state, responses, head=50)
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
        file_discrepancy(world.state, forged, world.kp("alice"), 0)
    assert exc.value.code == err.INVALID_EVIDENCE


def test_evidence_sound_against_ground_truth():
    world = _gateway_world()
    good, bad = _two_answers(world)
    world.state.height = 50
    evidence = compare_responses(world.state, [good, bad], head=50)
    # at least one side of the pair provably differs from the honest answer
    from rolechain.gateway import compute_result

    honest = compute_result(world.state, OwnBalance(world.aid("alice")))
    assert evidence.first.result != honest or evidence.second.result != honest


def test_outlier_among_four_responses_is_named():
    world = _gateway_world()
    # add two more honest validators
    for name in ("v2", "v3"):
        world.keys[name] = keypair_from_label("mock", name, 0)
        world.ids[name] = world.keys[name].account_id
        world.keys[f"{name}.view"] = keypair_from_label("mock", f"{name}.view", 0)
        from rolechain.ledger import Account
        from rolechain.payloads import Role as R

        world.state.accounts[world.aid(name)] = Account(
            world.aid(name), world.keys[name].public_key, {R.VALIDATOR}
        )
        world.state.validator_registry[world.aid(name)] = ValidatorRecord(
            world.aid(name), ("s",), ("v",), "val", world.keys[f"{name}.view"].public_key, "ops"
        )
    query = OwnBalance(world.aid("alice"))
    responses = []
    for name in ("v0", "v2", "v3"):
        _, vis = _gateways(world, name)
        responses.append(_query(world, vis, "alice", query))
    _, liar = _gateways(world, "v1", faults={"corrupt_results"})
    outlier = _query(world, liar, "alice", query)
    responses.append(outlier)
    world.state.height = 50
    evidence = compare_responses(world.state, responses, head=50)
    assert evidence is not None
    # any conflicting pair must include the one lying validator
    assert world.aid("v1") in (evidence.first.validator, evidence.second.validator)
