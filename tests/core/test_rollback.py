"""Rollback protection: the multiset-hash tree and the flat group guard."""

from dataclasses import dataclass
from typing import Callable

import pytest

from repro.core.rollback import AnchoredGuard, FlatStoreGuard, RollbackGuard
from repro.errors import CounterError, RollbackDetected
from repro.sgx import RoteCounterService, SgxPlatform
from repro.sgx.costmodel import SgxCostModel
from repro.sgx.enclave import Enclave
from repro.storage.stores import StoreSet

from tests.core.conftest import ROOT_KEY


def snapshot_matching(store, prefix):
    return {key: store.get(key) for key in store.keys() if key.startswith(prefix)}


def restore(store, snapshot):
    for key, value in snapshot.items():
        store.put(key, value)


@pytest.fixture()
def guarded(make_world):
    return make_world(rollback=True)


class TestHappyPath:
    def test_reads_verify_after_writes(self, guarded):
        guarded.handler.put_dir("alice", "/d/")
        guarded.handler.put_file("alice", "/d/f", b"v1")
        assert guarded.manager.read_content("/d/f") == b"v1"
        guarded.handler.put_file("alice", "/d/f", b"v2")
        assert guarded.manager.read_content("/d/f") == b"v2"

    def test_deep_tree(self, guarded):
        path = "/"
        for depth in range(5):
            path = path + f"d{depth}/"
            guarded.handler.put_dir("alice", path)
        guarded.handler.put_file("alice", path + "leaf", b"deep")
        assert guarded.manager.read_content(path + "leaf") == b"deep"

    def test_delete_keeps_tree_consistent(self, guarded):
        guarded.handler.put_file("alice", "/a", b"1")
        guarded.handler.put_file("alice", "/b", b"2")
        guarded.handler.remove("alice", "/a")
        assert guarded.manager.read_content("/b") == b"2"

    def test_move_keeps_tree_consistent(self, guarded):
        guarded.handler.put_dir("alice", "/d/")
        guarded.handler.put_file("alice", "/d/f", b"data")
        guarded.handler.move("alice", "/d/f", "/f")
        assert guarded.manager.read_content("/f") == b"data"

    def test_many_files_one_bucket_collisions_fine(self, make_world):
        world = make_world(rollback=True, buckets=2)  # force collisions
        for i in range(20):
            world.handler.put_file("alice", f"/f{i}", bytes([i]))
        for i in range(20):
            assert world.manager.read_content(f"/f{i}") == bytes([i])


class TestContentRollbackAttacks:
    def test_single_file_rollback_detected(self, guarded):
        store = guarded.stores.content
        guarded.handler.put_file("alice", "/f", b"v1")
        old = snapshot_matching(store, "/f")
        guarded.handler.put_file("alice", "/f", b"v2")
        restore(store, old)
        with pytest.raises(RollbackDetected):
            guarded.manager.read_content("/f")

    def test_acl_rollback_detected(self, guarded):
        """The paper's motivating case: replaying an old ACL to undo a
        permission revocation."""
        store = guarded.stores.content
        guarded.handler.put_file("alice", "/f", b"secret")
        guarded.handler.add_user("alice", "bob", "eng")
        guarded.handler.set_permission("alice", "/f", "eng", "r")
        old_acl = snapshot_matching(store, "/f.acl")
        guarded.handler.set_permission("alice", "/f", "eng", "")
        restore(store, old_acl)
        with pytest.raises(RollbackDetected):
            guarded.access.auth_f("bob", None, "/f")

    def test_directory_rollback_detected(self, guarded):
        store = guarded.stores.content
        guarded.handler.put_dir("alice", "/d/")
        old_root = snapshot_matching(store, "/\x00")  # root dir file chunks
        guarded.handler.put_dir("alice", "/e/")
        restore(store, old_root)
        with pytest.raises(RollbackDetected):
            guarded.manager.read_dir("/")

    def test_deletion_replay_detected(self, guarded):
        """Re-inserting a deleted file's objects is a rollback too."""
        store = guarded.stores.content
        guarded.handler.put_file("alice", "/f", b"deleted")
        ghost = snapshot_matching(store, "/f")
        guarded.handler.remove("alice", "/f")
        restore(store, ghost)
        with pytest.raises(RollbackDetected):
            guarded.manager.read_content("/f")

    def test_consistent_subtree_rollback_detected_at_root(self, guarded):
        """Rolling back a file AND its ancestors' guard nodes still fails,
        because the root anchor does not match."""
        store = guarded.stores.content
        guarded.handler.put_dir("alice", "/d/")
        guarded.handler.put_file("alice", "/d/f", b"v1")
        everything_v1 = {key: store.get(key) for key in store.keys()}
        guarded.handler.put_file("alice", "/d/f", b"v2")
        # Restore all objects EXCEPT the anchor.
        for key, value in everything_v1.items():
            if "anchor" not in key:
                store.put(key, value)
        with pytest.raises(RollbackDetected):
            guarded.manager.read_content("/d/f")


class TestGroupStoreGuard:
    def test_member_list_rollback_detected(self, guarded):
        """The paper's headline attack: an old member list would let a
        revoked user regain access."""
        store = guarded.stores.group
        guarded.handler.put_file("alice", "/f", b"secret")
        guarded.handler.add_user("alice", "bob", "eng")
        old_member_list = snapshot_matching(store, "member:bob")
        guarded.handler.remove_user("alice", "bob", "eng")
        restore(store, old_member_list)
        with pytest.raises(RollbackDetected):
            guarded.access.user_groups("bob")

    def test_group_list_rollback_detected(self, guarded):
        store = guarded.stores.group
        guarded.handler.add_user("alice", "bob", "eng")
        old = snapshot_matching(store, "grouplist")
        guarded.handler.add_user("alice", "bob", "sales")
        restore(store, old)
        with pytest.raises(RollbackDetected):
            guarded.access.exists_g("sales")


class TestAnchoring:
    def test_root_hash_changes_with_every_write(self, guarded):
        hashes = [guarded.guard.root_hash()]
        guarded.handler.put_file("alice", "/a", b"1")
        hashes.append(guarded.guard.root_hash())
        guarded.handler.put_file("alice", "/a", b"2")
        hashes.append(guarded.guard.root_hash())
        assert len(set(hashes)) == 3

    def test_recompute_matches_incremental(self, guarded):
        guarded.handler.put_dir("alice", "/d/")
        guarded.handler.put_file("alice", "/d/f", b"x")
        guarded.handler.put_file("alice", "/g", b"y")
        guarded.handler.remove("alice", "/g")
        assert guarded.guard.recompute_root_hash() == guarded.guard.root_hash()

    def test_rebuild_restores_verifiability(self, make_world):
        """Enabling the guard over an existing unguarded share via rebuild."""
        stores = StoreSet.in_memory()
        plain = make_world(stores=stores)
        plain.handler.put_dir("alice", "/d/")
        plain.handler.put_file("alice", "/d/f", b"migrated")
        guard = RollbackGuard(plain.manager, ROOT_KEY, buckets=16)
        guard.rebuild()
        plain.manager.guard = guard
        assert plain.manager.read_content("/d/f") == b"migrated"

    def test_verify_restored_state(self, guarded):
        guarded.handler.put_file("alice", "/f", b"x")
        guarded.guard.verify_restored_state()  # consistent: no exception

    def test_verify_restored_state_rejects_tamper(self, guarded):
        guarded.handler.put_file("alice", "/f", b"x")
        old = snapshot_matching(guarded.stores.content, "/f")
        guarded.handler.put_file("alice", "/f", b"y")
        restore(guarded.stores.content, old)
        with pytest.raises(RollbackDetected):
            guarded.guard.verify_restored_state()


class TestFlatGuardUnit:
    def test_accept_current_state_reanchors(self, make_world):
        world = make_world(rollback=True)
        world.handler.add_user("alice", "bob", "eng")
        world.group_guard.accept_current_state()
        assert "eng" in world.access.user_groups("bob")

    def test_new_users_survive_bucket_collisions(self, make_world):
        """Regression: a new user's member list used to enter its guard
        bucket before the user was in the registry, so leaf enumeration
        (registry-driven) missed it — the first user whose member list
        collided with the registry's bucket broke every verify of that
        bucket.  With few buckets, collisions are guaranteed."""
        world = make_world(rollback=True, buckets=2)
        for i in range(12):
            world.handler.add_user("alice", f"u{i}", "eng")
            assert "eng" in world.access.user_groups(f"u{i}")
        assert len(world.access.known_users()) == 13  # 12 members + alice


class _CounterOwner(Enclave):
    SIGNER = "rollback-tests"


@dataclass
class Layout:
    """One guard layout under test, with whole-FS counter protection."""

    guard: AnchoredGuard
    counter: RoteCounterService
    #: Two leaf paths for hash-level updates (no stored data behind them).
    leaves: tuple[str, str]
    #: Guarded writes of version 1 and 2 of one leaf, a guarded read of
    #: it, and that leaf's object prefix in ``store``.
    write_v1: Callable[[], object]
    write_v2: Callable[[], object]
    read: Callable[[], object]
    store: object
    prefix: str

    def counter_down(self) -> None:
        for replica in range(2):  # 2 of 4 up: below the quorum of 3
            self.counter.set_replica_up(replica, False)

    def counter_up(self) -> None:
        for replica in range(2):
            self.counter.set_replica_up(replica, True)


@pytest.fixture(params=["fs", "group"])
def layout(request, make_world):
    """Both guards over one handler stack; the parameter picks the one
    under test, so every test below runs against both node layouts."""
    world = make_world()
    owner = _CounterOwner()
    SgxPlatform().load(owner)
    counter = RoteCounterService(None, SgxCostModel(), replicas=4)
    guards = {
        "fs": RollbackGuard(world.manager, ROOT_KEY, buckets=4, enclave=owner, counter=counter),
        "group": FlatStoreGuard(world.manager, ROOT_KEY, buckets=4, enclave=owner, counter=counter),
    }
    world.manager.guard = guards["fs"]
    world.manager.group_guard = guards["group"]
    handler = world.handler
    handler.put_dir("alice", "/d/")
    if request.param == "fs":
        return Layout(
            guard=guards["fs"],
            counter=counter,
            leaves=("/a", "/d/b"),
            write_v1=lambda: handler.put_file("alice", "/f", b"v1"),
            write_v2=lambda: handler.put_file("alice", "/f", b"v2"),
            read=lambda: world.manager.read_content("/f"),
            store=world.stores.content,
            prefix="/f",
        )
    return Layout(
        guard=guards["group"],
        counter=counter,
        leaves=("member:x", "member:y"),
        write_v1=lambda: handler.add_user("alice", "bob", "eng"),
        write_v2=lambda: handler.remove_user("alice", "bob", "eng"),
        read=lambda: world.access.user_groups("bob"),
        store=world.stores.group,
        prefix="member:bob",
    )


H1, H2 = b"\x01" * 32, b"\x02" * 32


class TestGuardSkeleton:
    """The shared anchored-MSet machinery, once per node layout."""

    def test_batch_commit_and_abort_round_trip(self, layout):
        guard = layout.guard
        leaf = layout.leaves[0]
        before = guard.root_hash()
        anchor_writes = guard.stats.anchor_writes

        guard.begin_batch()
        guard.on_write(leaf, H1, None)
        assert guard.expected_main() != before
        guard.abort_batch()
        assert guard.root_hash() == before == guard.expected_main()
        assert guard.stats.anchor_writes == anchor_writes

        guard.begin_batch()
        guard.on_write(leaf, H1, None)
        guard.on_write(leaf, H2, H1)
        pending = guard.expected_main()
        assert guard.stats.anchor_writes == anchor_writes  # deferred
        guard.commit_batch()
        assert guard.expected_main() == pending == guard.root_hash()
        assert guard.stats.anchor_writes == anchor_writes + 1  # once per batch
        assert guard.stats.batches == 1

        guard.on_delete(leaf, H2)
        assert guard.root_hash() == before

    def test_restore_pending_rewinds_one_member_exactly(self, layout):
        guard = layout.guard
        first, second = layout.leaves
        before = guard.root_hash()
        guard.begin_batch()
        guard.on_write(first, H1, None)  # an earlier member's commit
        snap = guard.snapshot_pending()
        after_first = guard.expected_main()
        guard.on_write(second, H2, None)  # the member that aborts
        guard.on_write(first, H2, H1)
        guard.restore_pending(snap)
        assert guard.expected_main() == after_first
        guard.commit_batch()
        assert guard.root_hash() == after_first
        # Undoing the earlier member alone returns to the start: none of
        # the aborted member's updates survived the rewind.
        guard.on_delete(first, H1)
        assert guard.root_hash() == before

    def test_verify_restored_state_rejects_tampered_leaf(self, layout):
        layout.write_v1()
        old = snapshot_matching(layout.store, layout.prefix)
        assert old
        layout.write_v2()
        layout.guard.verify_restored_state()  # consistent: no exception
        restore(layout.store, old)
        with pytest.raises(RollbackDetected):
            layout.guard.verify_restored_state()

    def test_degraded_reads_counted_while_counter_unreachable(self, layout):
        guard = layout.guard
        layout.write_v1()
        layout.read()
        assert guard.degraded_reads == 0
        layout.counter_down()
        layout.read()
        assert guard.degraded_reads > 0
        guard.allow_degraded_reads = False
        with pytest.raises(CounterError):
            layout.read()

    def test_verify_anchor_fresh_refuses_degraded_mode(self, layout):
        guard = layout.guard
        layout.write_v1()
        guard.verify_anchor_fresh()
        layout.counter_down()
        with pytest.raises(CounterError):
            guard.verify_anchor_fresh()
        assert guard.allow_degraded_reads  # the escape hatch is restored
        assert guard.degraded_reads == 0
        layout.counter_up()
        guard.verify_anchor_fresh()
