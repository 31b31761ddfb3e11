"""Runtime race detection and protocol fault injection (PR 9).

Three layers: the CRC sentinel itself (catches any write to a shard's
attached bank), race-check mode threaded through the handles/service
(normal serving must pass verification — the single-writer protocol
holds in practice, not just under lint), and the protocol fault
injector (duplicated, reordered and dropped epochs must never resurrect
stale cache entries, matching an in-order reference bitwise).
"""

import numpy as np
import pytest

from repro.serving import ShardedService
from repro.serving.sharded import (
    ArrayBank,
    FaultInjectingHandle,
    ShmRaceError,
    ShmWriteSentinel,
    build_synthetic_system,
    race_check_enabled,
)
from repro.serving.sharded.scorer import SharedScorer, compute_item_side
from repro.serving.sharded.shard import Shard
from repro.serving.sharded.worker import LocalShardHandle, ShardError


@pytest.fixture(scope="module")
def system():
    return build_synthetic_system(24, 16, feature_dim=8, seed=11)


def _local_shard(model, n=6):
    arrays = compute_item_side(model)
    bank = ArrayBank.snapshot(arrays)
    scorer = SharedScorer(
        bank,
        num_users=model.num_users,
        num_items=model.num_items,
        user_ids=np.arange(model.num_users, dtype=np.int64),
        user_side=model.user_side(np.arange(model.num_users)),
    )
    return Shard(0, scorer, n=n)


def _corrupt(bank, key="item_bias", delta=1.0):
    # Bypass the read-only flag the way a buggy native kernel could:
    # a fresh view over the same (writable) base buffer.
    view = bank[key].view()
    view.flags.writeable = True
    view.flat[0] += delta


def _update_payload(model, epoch, items, scale=1.0):
    feats = model.features[items] + scale * (epoch + 1)
    return {"epoch": epoch, "item_ids": items, "item_features": feats}


# --------------------------------------------------------------------- #
# The sentinel itself
# --------------------------------------------------------------------- #
class TestShmWriteSentinel:
    def test_untouched_bank_verifies(self, system):
        model, *_ = system
        shard = _local_shard(model)
        sentinel = ShmWriteSentinel(shard.scorer.bank)
        assert sentinel.keys()
        sentinel.verify()  # no raise

    def test_corruption_names_key_and_op(self, system):
        model, *_ = system
        shard = _local_shard(model)
        sentinel = ShmWriteSentinel(shard.scorer.bank)
        _corrupt(shard.scorer.bank, "item_bias")
        with pytest.raises(ShmRaceError, match="item_bias") as excinfo:
            sentinel.verify(op="recommend", seq=7)
        assert "op 'recommend'" in str(excinfo.value)
        assert "seq 7" in str(excinfo.value)
        assert "single-writer" in str(excinfo.value)

    def test_reverted_corruption_verifies_again(self, system):
        model, *_ = system
        shard = _local_shard(model)
        sentinel = ShmWriteSentinel(shard.scorer.bank)
        original = shard.scorer.bank["item_bias"].copy()
        _corrupt(shard.scorer.bank, "item_bias", delta=0.5)
        restore = shard.scorer.bank["item_bias"].view()
        restore.flags.writeable = True
        restore[...] = original
        sentinel.verify()  # content-identical again: CRC matches


class TestRaceCheckToggle:
    def test_explicit_wins_over_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_RACE_CHECK", "1")
        assert race_check_enabled(False) is False
        monkeypatch.delenv("REPRO_RACE_CHECK")
        assert race_check_enabled(True) is True

    def test_environment_spellings(self, monkeypatch):
        for value in ("1", "true", "YES", " on "):
            monkeypatch.setenv("REPRO_RACE_CHECK", value)
            assert race_check_enabled() is True
        for value in ("", "0", "off", "no"):
            monkeypatch.setenv("REPRO_RACE_CHECK", value)
            assert race_check_enabled() is False


# --------------------------------------------------------------------- #
# Race mode on the serving path
# --------------------------------------------------------------------- #
class TestRaceModeServing:
    def test_normal_serving_passes_verification(self, system):
        # The real single-writer assertion: recommends and epoch updates
        # that overlay the whole catalog never touch the attached bank.
        model, *_ = system
        handle = LocalShardHandle(_local_shard(model), race_check=True)
        try:
            for user in range(model.num_users):
                handle.call("recommend", {"user": user})
            items = np.arange(model.num_items, dtype=np.int64)
            for epoch in (1, 2, 3):
                handle.cast("update", _update_payload(model, epoch, items))
            handle.call("stats")
        finally:
            handle.stop()

    def test_corruption_fails_the_op_that_exposed_it(self, system):
        model, *_ = system
        handle = LocalShardHandle(_local_shard(model), race_check=True)
        try:
            handle.call("ping")
            _corrupt(handle.shard.scorer.bank)
            with pytest.raises(ShmRaceError, match="op 'ping'"):
                handle.call("ping")
        finally:
            handle.stop()

    def test_service_build_threads_race_check(self, system):
        model, item_classes, class_names, counts = system
        service = ShardedService.build(
            model, num_shards=2, backend="local", n=6, race_check=True
        )
        try:
            assert len(service.ping()) == 2
            reference = ShardedService.build(
                model, num_shards=2, backend="local", n=6, race_check=False
            )
            try:
                for user in range(model.num_users):
                    np.testing.assert_array_equal(
                        service.recommend(user), reference.recommend(user)
                    )
            finally:
                reference.close()
        finally:
            service.close()


# --------------------------------------------------------------------- #
# Typed protocol errors
# --------------------------------------------------------------------- #
class TestTypedShardError:
    def test_from_reply_carries_protocol_context(self):
        error = ShardError.from_reply(
            3,
            {"op": "update", "seq": 12, "kind": "ValueError", "message": "bad epoch"},
        )
        assert (error.shard_id, error.op, error.seq, error.kind) == (
            3, "update", 12, "ValueError",
        )
        assert "shard 3 op update (seq 12): ValueError: bad epoch" in str(error)

    def test_legacy_string_reply_still_renders(self):
        error = ShardError.from_reply(1, "kaboom", op="stats")
        assert error.kind is None and error.op == "stats"
        assert "shard 1 op stats: kaboom" in str(error)

    def test_local_handle_raises_typed_errors(self, system):
        model, *_ = system
        handle = LocalShardHandle(_local_shard(model))
        try:
            with pytest.raises(ShardError) as excinfo:
                handle.call("update", _update_payload(model, 0, np.array([0])))
            assert excinfo.value.kind == "ValueError"
            assert excinfo.value.op == "update"
            assert excinfo.value.shard_id == 0
        finally:
            handle.stop()
        with pytest.raises(ShardError) as excinfo:
            handle.call("stats")
        assert excinfo.value.kind == "HandleStopped"


# --------------------------------------------------------------------- #
# Protocol fault injection
# --------------------------------------------------------------------- #
class TestFaultInjection:
    def _reference(self, model, epochs, items):
        shard = _local_shard(model)
        for user in range(model.num_users):
            shard.recommend(user)
        for epoch in epochs:
            payload = _update_payload(model, epoch, items)
            shard.submit_update(
                payload["epoch"], payload["item_ids"], payload["item_features"]
            )
        return {u: shard.recommend(u).copy() for u in range(model.num_users)}

    def test_duplicated_epochs_never_double_apply(self, system):
        model, *_ = system
        items = np.array([2, 5, 9])
        expected = self._reference(model, (1, 2, 3), items)

        handle = FaultInjectingHandle(
            LocalShardHandle(_local_shard(model)), duplicate=True
        )
        for user in range(model.num_users):
            handle.call("recommend", {"user": user})
        for epoch in (1, 2, 3):
            handle.cast("update", _update_payload(model, epoch, items))
        assert handle.injected["duplicated"] == 3
        shard = handle.inner.shard
        assert shard.applied_epoch == 3 and shard.stale_updates == 3
        for user in range(model.num_users):
            np.testing.assert_array_equal(
                handle.call("recommend", {"user": user}), expected[user]
            )

    def test_reordered_epochs_buffer_and_apply_in_order(self, system):
        model, *_ = system
        items = np.array([0, 7])
        expected = self._reference(model, (1, 2, 3, 4), items)

        handle = FaultInjectingHandle(
            LocalShardHandle(_local_shard(model)), delay_epochs=(2, 3)
        )
        for user in range(model.num_users):
            handle.call("recommend", {"user": user})
        for epoch in (1, 2, 3, 4):
            handle.cast("update", _update_payload(model, epoch, items))
        shard = handle.inner.shard
        # 2 and 3 are held back: only 1 applied, 4 buffered.
        assert shard.applied_epoch == 1 and shard.pending_epochs == [4]
        # Released in reverse (3 before 2): the gap fills, all apply.
        assert handle.release_delayed(reverse=True) == 2
        assert shard.applied_epoch == 4 and not shard.pending_epochs
        for user in range(model.num_users):
            np.testing.assert_array_equal(
                handle.call("recommend", {"user": user}), expected[user]
            )

    def test_dropped_epoch_delivered_late_cannot_resurrect_state(self, system):
        model, *_ = system
        items = np.array([1, 3, 8])
        expected = self._reference(model, (1, 2, 3), items)

        handle = FaultInjectingHandle(
            LocalShardHandle(_local_shard(model)), drop_epochs=(2,)
        )
        for user in range(model.num_users):
            handle.call("recommend", {"user": user})
        for epoch in (1, 2, 3):
            handle.cast("update", _update_payload(model, epoch, items))
        shard = handle.inner.shard
        assert shard.applied_epoch == 1 and shard.pending_epochs == [3]

        # The dropped epoch finally arrives: the gap fills in order.
        assert handle.deliver_dropped() == 1
        assert shard.applied_epoch == 3
        served = {u: handle.call("recommend", {"user": u}) for u in range(model.num_users)}
        for user, expect in expected.items():
            np.testing.assert_array_equal(served[user], expect)

        # A stale duplicate of epoch 2 after the world moved on must be
        # dropped outright — nothing served may change.
        stale_before = shard.stale_updates
        handle.inner.cast("update", _update_payload(model, 2, items))
        assert shard.stale_updates == stale_before + 1
        assert shard.applied_epoch == 3
        for user, expect in expected.items():
            np.testing.assert_array_equal(
                handle.call("recommend", {"user": user}), expect
            )

    def test_passthrough_and_counters(self, system):
        model, *_ = system
        handle = FaultInjectingHandle(LocalShardHandle(_local_shard(model)))
        assert handle.alive()
        assert handle.call("ping")["shard_id"] == 0
        handle.cast("stats")  # non-update casts pass straight through
        assert handle.flush() == []
        assert handle.injected == {"duplicated": 0, "delayed": 0, "dropped": 0}
        handle.stop()
        assert not handle.alive()
