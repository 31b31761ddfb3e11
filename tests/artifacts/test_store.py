"""Unit tests for the artifact payload protocol and the content-addressed store."""

import json
import os

import numpy as np
import pytest

from repro.artifacts import (
    ArtifactIntegrityError,
    ArtifactMissingError,
    ArtifactSchemaError,
    ArtifactStore,
    FingerprintMismatchError,
    MemoryArtifactStore,
    content_hash,
    read_header,
    read_payload,
    write_payload,
)

ARRAYS = {
    "weights": np.arange(12, dtype=np.float64).reshape(3, 4),
    "bias": np.zeros(3),
}


@pytest.fixture(params=["disk", "memory"])
def store(request, tmp_path):
    """A fresh store of each backend."""
    return ArtifactStore(str(tmp_path)) if request.param == "disk" else MemoryArtifactStore()


def misfile(store, kind, fingerprint, new_kind, new_fingerprint):
    """Move a stored artifact to another address, as a renamed file would be."""
    if isinstance(store, ArtifactStore):
        os.renames(store.path_for(kind, fingerprint), store.path_for(new_kind, new_fingerprint))
    else:
        store._entries[(new_kind, new_fingerprint)] = store._entries.pop((kind, fingerprint))


class TestPayloadProtocol:
    def test_round_trip(self, tmp_path):
        path = os.path.join(tmp_path, "a.npz")
        digest = write_payload(
            path, kind="demo", schema_version=1, arrays=ARRAYS, meta={"note": "x"}
        )
        arrays, meta, recorded = read_payload(path, kind="demo", schema_version=1)
        assert recorded == digest
        assert meta == {"note": "x"}
        np.testing.assert_array_equal(arrays["weights"], ARRAYS["weights"])

    def test_missing_file(self, tmp_path):
        with pytest.raises(ArtifactMissingError):
            read_payload(os.path.join(tmp_path, "nope.npz"), kind="demo", schema_version=1)

    def test_kind_mismatch(self, tmp_path):
        path = os.path.join(tmp_path, "a.npz")
        write_payload(path, kind="demo", schema_version=1, arrays=ARRAYS)
        with pytest.raises(ArtifactSchemaError, match="kind 'demo'"):
            read_payload(path, kind="other", schema_version=1)

    def test_schema_version_mismatch(self, tmp_path):
        path = os.path.join(tmp_path, "a.npz")
        write_payload(path, kind="demo", schema_version=1, arrays=ARRAYS)
        with pytest.raises(ArtifactSchemaError, match="schema version 1"):
            read_payload(path, kind="demo", schema_version=2)

    def test_fingerprint_mismatch(self, tmp_path):
        path = os.path.join(tmp_path, "a.npz")
        write_payload(
            path, kind="demo", schema_version=1, arrays=ARRAYS, fingerprint="aaa"
        )
        read_payload(path, kind="demo", schema_version=1, fingerprint="aaa")
        with pytest.raises(FingerprintMismatchError):
            read_payload(path, kind="demo", schema_version=1, fingerprint="bbb")

    def test_unversioned_file_refused(self, tmp_path):
        path = os.path.join(tmp_path, "legacy.npz")
        np.savez(path, **ARRAYS)
        with pytest.raises(ArtifactSchemaError, match="envelope"):
            read_payload(path, kind="demo", schema_version=1)

    def test_tampered_payload_refused(self, tmp_path):
        path = os.path.join(tmp_path, "a.npz")
        write_payload(path, kind="demo", schema_version=1, arrays=ARRAYS)
        with np.load(path) as archive:
            payload = {key: archive[key] for key in archive.files}
        payload["weights"] = payload["weights"] * 2.0
        np.savez(path, **payload)
        with pytest.raises(ArtifactIntegrityError):
            read_payload(path, kind="demo", schema_version=1)

    def test_reserved_array_names_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="reserved"):
            write_payload(
                os.path.join(tmp_path, "a.npz"),
                kind="demo",
                schema_version=1,
                arrays={"__secret__": np.zeros(1)},
            )

    def test_content_hash_sensitivity(self):
        base = content_hash(ARRAYS)
        assert base == content_hash({k: v.copy() for k, v in ARRAYS.items()})
        changed = {**ARRAYS, "bias": np.ones(3)}
        assert content_hash(changed) != base
        assert content_hash(ARRAYS, {"m": 1}) != base

    def test_header_readable_without_payload(self, tmp_path):
        path = os.path.join(tmp_path, "a.npz")
        write_payload(
            path, kind="demo", schema_version=3, arrays=ARRAYS, fingerprint="fp"
        )
        header = read_header(path)
        assert header["kind"] == "demo"
        assert header["schema_version"] == 3
        assert header["fingerprint"] == "fp"

    def test_interrupted_write_leaves_nothing(self, tmp_path, monkeypatch):
        def killed_mid_write(file, **arrays):
            file.write(b"PK\x03\x04 truncated")
            raise KeyboardInterrupt

        monkeypatch.setattr(np, "savez", killed_mid_write)
        with pytest.raises(KeyboardInterrupt):
            write_payload(
                os.path.join(tmp_path, "a.npz"), kind="demo", schema_version=1, arrays=ARRAYS
            )
        assert os.listdir(tmp_path) == []

    def test_interrupted_overwrite_keeps_previous_file(self, tmp_path, monkeypatch):
        path = os.path.join(tmp_path, "a.npz")
        digest = write_payload(path, kind="demo", schema_version=1, arrays=ARRAYS)

        def failing_writer(file, **arrays):
            raise OSError("disk full")

        monkeypatch.setattr(np, "savez", failing_writer)
        with pytest.raises(OSError, match="disk full"):
            write_payload(path, kind="demo", schema_version=1, arrays={"bias": np.ones(3)})
        assert os.listdir(tmp_path) == ["a.npz"]
        assert read_payload(path, kind="demo", schema_version=1)[2] == digest

    def test_npz_suffix_appended_like_numpy(self, tmp_path):
        base = os.path.join(tmp_path, "state")
        write_payload(base, kind="demo", schema_version=1, arrays=ARRAYS)
        assert os.listdir(tmp_path) == ["state.npz"]
        read_payload(os.path.join(tmp_path, "state.npz"), kind="demo", schema_version=1)


class TestArtifactStore:
    def test_save_load_round_trip(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        ref = store.save("stage_x", "deadbeef", ARRAYS, meta={"note": "hi"})
        assert store.exists("stage_x", "deadbeef")
        loaded = store.load("stage_x", "deadbeef")
        assert loaded.ref.content_hash == ref.content_hash
        assert loaded.meta["note"] == "hi"
        np.testing.assert_array_equal(loaded.arrays["weights"], ARRAYS["weights"])

    def test_load_opens_the_archive_once(self, tmp_path, monkeypatch):
        store = ArtifactStore(str(tmp_path))
        store.save("stage_x", "deadbeef", ARRAYS, meta={"note": "hi"})
        opened = []
        real_load = np.load
        monkeypatch.setattr(
            np, "load", lambda *args, **kwargs: opened.append(args) or real_load(*args, **kwargs)
        )
        loaded = store.load("stage_x", "deadbeef")
        assert len(opened) == 1
        assert loaded.meta["note"] == "hi"
        np.testing.assert_array_equal(loaded.arrays["bias"], ARRAYS["bias"])

    def test_missing_artifact(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        assert not store.exists("stage_x", "cafecafe")
        with pytest.raises(ArtifactMissingError):
            store.load("stage_x", "cafecafe")

    def test_distinct_fingerprints_distinct_paths(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        a = store.save("stage_x", "aaaa", ARRAYS)
        b = store.save("stage_x", "bbbb", {"weights": np.ones(2)})
        assert a.path != b.path
        np.testing.assert_array_equal(store.load("stage_x", "aaaa").arrays["weights"], ARRAYS["weights"])

    def test_unsafe_address_components_rejected(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        with pytest.raises(ValueError):
            store.path_for("../escape", "aaaa")
        with pytest.raises(ValueError):
            store.path_for("stage_x", "a/b")

    def test_list(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        store.save("stage_x", "aaaa", ARRAYS)
        store.save("stage_y", "bbbb", ARRAYS)
        refs = store.list()
        assert {(r.kind, r.fingerprint) for r in refs} == {
            ("stage_x", "aaaa"),
            ("stage_y", "bbbb"),
        }
        assert [r.fingerprint for r in store.list("stage_x")] == ["aaaa"]

    def test_schema_version_refusal_through_store(self, store):
        store.save("stage_x", "aaaa", ARRAYS, schema_version=1)
        with pytest.raises(ArtifactSchemaError):
            store.load("stage_x", "aaaa", schema_version=2)

    def test_wrong_fingerprint_in_file_refused(self, store):
        """A file renamed to another fingerprint's address must not load."""
        store.save("stage_x", "aaaa", ARRAYS)
        misfile(store, "stage_x", "aaaa", "stage_x", "bbbb")
        with pytest.raises(FingerprintMismatchError):
            store.load("stage_x", "bbbb")

    def test_wrong_kind_in_file_refused(self, store):
        """A file moved under another kind's address must not load."""
        store.save("stage_x", "aaaa", ARRAYS)
        misfile(store, "stage_x", "aaaa", "stage_y", "aaaa")
        with pytest.raises(ArtifactSchemaError, match="kind 'stage_x'"):
            store.load("stage_y", "aaaa")

    def test_loaded_values_are_read_only(self, store):
        store.save("stage_x", "aaaa", ARRAYS)
        loaded = store.load("stage_x", "aaaa")
        for name in ARRAYS:
            with pytest.raises(ValueError, match="read-only"):
                loaded.arrays[name][0] = 1.0
        np.testing.assert_array_equal(store.load("stage_x", "aaaa").arrays["bias"], ARRAYS["bias"])


class TestMemoryArtifactStore:
    def test_same_content_hash_as_disk(self, tmp_path):
        meta = {"rows": [{"chr": 0.5}], "note": "x"}
        disk = ArtifactStore(str(tmp_path)).save("stage_x", "aaaa", ARRAYS, meta=meta)
        memory = MemoryArtifactStore().save("stage_x", "aaaa", ARRAYS, meta=meta)
        assert memory.content_hash == disk.content_hash
        assert memory.path is None and MemoryArtifactStore.root is None

    def test_keeps_its_own_frozen_copy(self):
        store = MemoryArtifactStore()
        weights = np.arange(4, dtype=np.float64)
        store.save("stage_x", "aaaa", {"weights": weights}, meta={"rows": [1]})
        weights[0] = 99.0  # the caller's array stays writable and its own
        loaded = store.load("stage_x", "aaaa")
        np.testing.assert_array_equal(loaded.arrays["weights"], np.arange(4.0))
        with pytest.raises(ValueError):
            loaded.arrays["weights"].setflags(write=True)
        loaded.meta["rows"].append(2)
        assert store.load("stage_x", "aaaa").meta["rows"] == [1]


class TestUnifiedSerializationPaths:
    """nn/data serialization and recommender state share the envelope."""

    def test_module_state_envelope(self, tmp_path):
        from repro.nn import TinyResNet, load_state, save_state

        net = TinyResNet(num_classes=3, widths=(4,), blocks_per_stage=(1,), seed=0)
        path = os.path.join(tmp_path, "net.npz")
        save_state(net, path, fingerprint="fp1")
        header = read_header(path)
        assert header["kind"] == "module_state"
        assert header["fingerprint"] == "fp1"
        clone = TinyResNet(num_classes=3, widths=(4,), blocks_per_stage=(1,), seed=1)
        load_state(clone, path, fingerprint="fp1")
        with pytest.raises(FingerprintMismatchError):
            load_state(clone, path, fingerprint="fp2")

    def test_recommender_state_dict_round_trip(self):
        from repro.data import tiny_dataset
        from repro.recommenders import VBPR, VBPRConfig

        dataset = tiny_dataset(seed=0, image_size=16)
        features = np.random.default_rng(0).normal(size=(dataset.num_items, 8))
        model = VBPR(
            dataset.num_users, dataset.num_items, features, VBPRConfig(epochs=2, seed=0)
        ).fit(dataset.feedback)
        clone = VBPR(
            dataset.num_users, dataset.num_items, features, VBPRConfig(epochs=2, seed=9)
        )
        clone.load_state_dict(model.state_dict())
        assert clone.is_fitted
        np.testing.assert_allclose(clone.score_all(), model.score_all(), atol=0)

    def test_bprmf_state_dict_round_trip(self):
        from repro.data import tiny_dataset
        from repro.recommenders import BPRMF, BPRMFConfig

        dataset = tiny_dataset(seed=0, image_size=16)
        model = BPRMF(
            dataset.num_users, dataset.num_items, BPRMFConfig(epochs=2, seed=0)
        ).fit(dataset.feedback)
        state = model.state_dict()
        assert sorted(state) == ["item_bias", "item_factors", "user_factors"]
        clone = BPRMF(dataset.num_users, dataset.num_items, BPRMFConfig(seed=9))
        assert clone.load_state_dict(state) is clone
        assert clone.is_fitted
        np.testing.assert_array_equal(clone.score_all(), model.score_all())

    def test_bprmf_state_dict_names_bad_keys(self):
        from repro.data import tiny_dataset
        from repro.recommenders import BPRMF

        dataset = tiny_dataset(seed=0, image_size=16)
        model = BPRMF(dataset.num_users, dataset.num_items)
        state = {name: np.zeros(1) for name in ("user_factors", "bogus")}
        with pytest.raises(ValueError) as excinfo:
            model.load_state_dict(state)
        message = str(excinfo.value)
        assert "item_factors" in message and "item_bias" in message  # missing
        assert "bogus" in message  # unexpected
        assert not model.is_fitted

    def test_recommender_state_dict_names_bad_keys(self):
        from repro.data import tiny_dataset
        from repro.recommenders import VBPR, VBPRConfig

        dataset = tiny_dataset(seed=0, image_size=16)
        features = np.zeros((dataset.num_items, 4))
        model = VBPR(dataset.num_users, dataset.num_items, features, VBPRConfig(epochs=1))
        state = {name: np.zeros(1) for name in ("user_factors", "bogus")}
        with pytest.raises(ValueError) as excinfo:
            model.load_state_dict(state)
        message = str(excinfo.value)
        assert "item_factors" in message  # missing key named
        assert "bogus" in message  # unexpected key named
