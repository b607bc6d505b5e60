"""Tests for the forwarder tables: Content Store, PIT and FIB."""

import pytest
from hypothesis import given, strategies as st

from repro.exceptions import NDNError
from repro.ndn.cs import CachePolicy, ContentStore
from repro.ndn.fib import Fib, NameTree
from repro.ndn.name import Name
from repro.ndn.packet import Data, Interest
from repro.ndn.pit import PendingInterestTable


def make_data(uri: str, freshness: float = 0.0) -> Data:
    return Data(name=Name(uri), content=b"x", freshness_period=freshness).sign()


class TestContentStore:
    def test_insert_and_exact_find(self):
        cs = ContentStore(capacity=10)
        cs.insert(make_data("/a/b"))
        assert cs.find(Interest(name=Name("/a/b"))) is not None
        assert cs.hits == 1

    def test_miss_counts(self):
        cs = ContentStore(capacity=10)
        assert cs.find(Interest(name=Name("/nope"))) is None
        assert cs.misses == 1
        assert cs.hit_ratio == 0.0

    def test_zero_capacity_disables_caching(self):
        cs = ContentStore(capacity=0)
        cs.insert(make_data("/a"))
        assert len(cs) == 0

    def test_negative_capacity_rejected(self):
        with pytest.raises(NDNError):
            ContentStore(capacity=-1)

    def test_prefix_match_returns_smallest_name(self):
        cs = ContentStore(capacity=10)
        cs.insert(make_data("/a/b/2"))
        cs.insert(make_data("/a/b/1"))
        found = cs.find(Interest(name=Name("/a/b"), can_be_prefix=True))
        assert found.name == Name("/a/b/1")

    def test_exact_interest_does_not_prefix_match(self):
        cs = ContentStore(capacity=10)
        cs.insert(make_data("/a/b/1"))
        assert cs.find(Interest(name=Name("/a/b"))) is None

    def test_must_be_fresh_rejects_stale_entries(self):
        clock = {"now": 0.0}
        cs = ContentStore(capacity=10, clock=lambda: clock["now"])
        cs.insert(make_data("/a", freshness=1.0))
        clock["now"] = 5.0
        assert cs.find(Interest(name=Name("/a"), must_be_fresh=True)) is None
        assert cs.find(Interest(name=Name("/a"))) is not None

    def test_fresh_entry_served_with_must_be_fresh(self):
        clock = {"now": 0.0}
        cs = ContentStore(capacity=10, clock=lambda: clock["now"])
        cs.insert(make_data("/a", freshness=10.0))
        clock["now"] = 5.0
        assert cs.find(Interest(name=Name("/a"), must_be_fresh=True)) is not None

    def test_lru_evicts_least_recently_used(self):
        clock = {"now": 0.0}
        cs = ContentStore(capacity=2, policy=CachePolicy.LRU, clock=lambda: clock["now"])
        cs.insert(make_data("/a"))
        clock["now"] = 1.0
        cs.insert(make_data("/b"))
        clock["now"] = 2.0
        cs.find(Interest(name=Name("/a")))  # touch /a so /b becomes LRU
        clock["now"] = 3.0
        cs.insert(make_data("/c"))
        assert "/a" in cs and "/c" in cs and "/b" not in cs

    def test_fifo_evicts_oldest_insertion(self):
        cs = ContentStore(capacity=2, policy=CachePolicy.FIFO)
        cs.insert(make_data("/a"))
        cs.insert(make_data("/b"))
        cs.find(Interest(name=Name("/a")))
        cs.insert(make_data("/c"))
        assert "/a" not in cs

    def test_lfu_evicts_least_frequently_used(self):
        cs = ContentStore(capacity=2, policy=CachePolicy.LFU)
        cs.insert(make_data("/a"))
        cs.insert(make_data("/b"))
        for _ in range(3):
            cs.find(Interest(name=Name("/a")))
        cs.insert(make_data("/c"))
        assert "/a" in cs and "/b" not in cs

    def test_reinsert_refreshes_entry(self):
        cs = ContentStore(capacity=5)
        cs.insert(make_data("/a"))
        cs.insert(make_data("/a"))
        assert len(cs) == 1

    def test_erase_prefix(self):
        cs = ContentStore(capacity=10)
        cs.insert(make_data("/a/1"))
        cs.insert(make_data("/a/2"))
        cs.insert(make_data("/b/1"))
        assert cs.erase("/a") == 2
        assert len(cs) == 1

    def test_stats_fields(self):
        cs = ContentStore(capacity=10)
        cs.insert(make_data("/a"))
        cs.find(Interest(name=Name("/a")))
        stats = cs.stats()
        assert stats["size"] == 1
        assert stats["hits"] == 1
        assert 0 < stats["hit_ratio"] <= 1


class TestContentStoreRegressions:
    def test_fifo_refresh_keeps_arrival_position(self):
        """Refreshing an entry must not grant it another trip through the
        FIFO queue (the old pop-and-reappend silently made FIFO behave like
        LRU-on-write)."""
        cs = ContentStore(capacity=2, policy=CachePolicy.FIFO)
        cs.insert(make_data("/a"))
        cs.insert(make_data("/b"))
        cs.insert(make_data("/a"))  # refresh: /a keeps its original position
        cs.insert(make_data("/c"))  # evicts /a (oldest arrival), not /b
        assert "/a" not in cs
        assert "/b" in cs and "/c" in cs

    def test_lru_refresh_does_update_recency(self):
        cs = ContentStore(capacity=2, policy=CachePolicy.LRU)
        cs.insert(make_data("/a"))
        cs.insert(make_data("/b"))
        cs.insert(make_data("/a"))  # refresh counts as use under LRU
        cs.insert(make_data("/c"))  # evicts /b
        assert "/a" in cs and "/c" in cs and "/b" not in cs

    @pytest.mark.parametrize("policy", list(CachePolicy))
    def test_refresh_honours_lowered_capacity(self, policy):
        """Refreshing an existing name must evict when the store is over a
        capacity that was lowered after the entries were cached."""
        cs = ContentStore(capacity=4, policy=policy)
        for uri in ("/a", "/b", "/c", "/d"):
            cs.insert(make_data(uri))
        cs.capacity = 2
        cs.insert(make_data("/a"))  # refresh path
        assert len(cs) == 2
        assert cs.evictions == 2

    def test_new_insert_honours_lowered_capacity(self):
        cs = ContentStore(capacity=4)
        for uri in ("/a", "/b", "/c", "/d"):
            cs.insert(make_data(uri))
        cs.capacity = 2
        cs.insert(make_data("/e"))
        assert len(cs) == 2

    def test_prefix_find_after_eviction_does_not_resurrect(self):
        cs = ContentStore(capacity=1, policy=CachePolicy.FIFO)
        cs.insert(make_data("/a/1"))
        cs.insert(make_data("/a/2"))  # evicts /a/1
        found = cs.find(Interest(name=Name("/a"), can_be_prefix=True))
        assert found.name == Name("/a/2")

    def test_prefix_find_after_erase(self):
        cs = ContentStore(capacity=10)
        cs.insert(make_data("/a/1"))
        cs.insert(make_data("/a/2"))
        cs.insert(make_data("/b/1"))
        cs.erase("/a")
        assert cs.find(Interest(name=Name("/a"), can_be_prefix=True)) is None
        assert cs.find(Interest(name=Name("/b"), can_be_prefix=True)) is not None

    def test_clear_resets_prefix_index(self):
        cs = ContentStore(capacity=10)
        cs.insert(make_data("/a/1"))
        cs.clear()
        assert cs.find(Interest(name=Name("/a"), can_be_prefix=True)) is None
        cs.insert(make_data("/a/2"))
        found = cs.find(Interest(name=Name("/a"), can_be_prefix=True))
        assert found.name == Name("/a/2")

    def test_lfu_erase_then_evict_recomputes_min_bucket(self):
        cs = ContentStore(capacity=3, policy=CachePolicy.LFU)
        cs.insert(make_data("/a"))
        cs.insert(make_data("/b"))
        cs.insert(make_data("/c"))
        for _ in range(2):
            cs.find(Interest(name=Name("/a")))
        cs.find(Interest(name=Name("/b")))
        cs.erase("/c")  # empties the 0-hit bucket out-of-band
        cs.insert(make_data("/d"))
        cs.insert(make_data("/e"))  # store full again: evicts /d (0 hits)
        assert "/d" not in cs
        assert "/a" in cs and "/b" in cs and "/e" in cs


class TestEvictionAccounting:
    @pytest.mark.parametrize("policy", list(CachePolicy))
    def test_counters_across_policies(self, policy):
        cs = ContentStore(capacity=2, policy=policy)
        for uri in ("/a", "/b", "/c", "/d"):
            cs.insert(make_data(uri))
        assert cs.insertions == 4
        assert cs.evictions == 2
        assert len(cs) == 2
        stats = cs.stats()
        assert stats["insertions"] == 4.0
        assert stats["evictions"] == 2.0
        assert stats["size"] == 2.0

    @pytest.mark.parametrize("policy", list(CachePolicy))
    def test_refresh_is_not_an_insertion(self, policy):
        cs = ContentStore(capacity=4, policy=policy)
        cs.insert(make_data("/a"))
        cs.insert(make_data("/a"))
        assert cs.insertions == 1
        assert cs.evictions == 0

    @pytest.mark.parametrize("policy", list(CachePolicy))
    def test_capacity_zero_store_counts_nothing(self, policy):
        cs = ContentStore(capacity=0, policy=policy)
        cs.insert(make_data("/a"))
        assert len(cs) == 0
        assert cs.insertions == 0
        assert cs.evictions == 0
        assert cs.find(Interest(name=Name("/a"))) is None
        assert cs.misses == 1
        assert cs.hit_ratio == 0.0

    def test_hit_ratio_tracks_hits_and_misses(self):
        cs = ContentStore(capacity=4)
        cs.insert(make_data("/a"))
        assert cs.find(Interest(name=Name("/a"))) is not None
        assert cs.find(Interest(name=Name("/b"))) is None
        assert cs.hits == 1 and cs.misses == 1
        assert cs.hit_ratio == 0.5

    def test_lru_find_updates_recency_without_clock(self):
        """The O(1) LRU path orders by access sequence, not wall clock."""
        cs = ContentStore(capacity=2, policy=CachePolicy.LRU)
        cs.insert(make_data("/a"))
        cs.insert(make_data("/b"))
        cs.find(Interest(name=Name("/a")))  # /b is now least recent
        cs.insert(make_data("/c"))
        assert "/b" not in cs
        assert "/a" in cs and "/c" in cs

    def test_lru_prefix_find_updates_recency(self):
        cs = ContentStore(capacity=2, policy=CachePolicy.LRU)
        cs.insert(make_data("/a/1"))
        cs.insert(make_data("/b/1"))
        cs.find(Interest(name=Name("/a"), can_be_prefix=True))
        cs.insert(make_data("/c/1"))
        assert "/b/1" not in cs
        assert "/a/1" in cs


class _ReferencePolicyModel:
    """A deliberately-naive min-scan model of the eviction policies.

    Mirrors the documented semantics (FIFO by arrival, LRU by last access
    including refreshes, LFU by (hits, last access)) with O(n) scans; the
    property test below checks the O(1) implementation against it.
    """

    def __init__(self, capacity: int, policy: CachePolicy) -> None:
        self.capacity = capacity
        self.policy = policy
        self.entries: dict[str, dict] = {}
        self.seq = 0
        self.hits = self.misses = self.insertions = self.evictions = 0

    def insert(self, uri: str, now: float) -> None:
        if self.capacity == 0:
            return
        if uri in self.entries:
            self.entries[uri]["last_access"] = now
            while len(self.entries) > self.capacity:
                self._evict()
            return
        while len(self.entries) >= self.capacity:
            self._evict()
        self.entries[uri] = {"hits": 0, "last_access": now, "arrival_seq": self.seq}
        self.seq += 1
        self.insertions += 1

    def find(self, uri: str, now: float) -> bool:
        entry = self.entries.get(uri)
        if entry is None:
            self.misses += 1
            return False
        entry["hits"] += 1
        entry["last_access"] = now
        self.hits += 1
        return True

    def _evict(self) -> None:
        if not self.entries:
            return
        if self.policy == CachePolicy.FIFO:
            victim = min(self.entries, key=lambda u: self.entries[u]["arrival_seq"])
        elif self.policy == CachePolicy.LRU:
            victim = min(self.entries, key=lambda u: self.entries[u]["last_access"])
        else:
            victim = min(
                self.entries,
                key=lambda u: (self.entries[u]["hits"], self.entries[u]["last_access"]),
            )
        del self.entries[victim]
        self.evictions += 1


_ops = st.lists(
    st.tuples(st.sampled_from(["insert", "find"]), st.sampled_from("abcde")),
    max_size=40,
)


class TestCachePolicyProperties:
    @pytest.mark.parametrize("policy", list(CachePolicy))
    @given(ops=_ops)
    def test_o1_store_matches_reference_model(self, policy, ops):
        clock = {"now": 0.0}
        cs = ContentStore(capacity=3, policy=policy, clock=lambda: clock["now"])
        model = _ReferencePolicyModel(capacity=3, policy=policy)
        for op, letter in ops:
            clock["now"] += 1.0  # unique timestamps: no tie-break ambiguity
            uri = f"/{letter}"
            if op == "insert":
                cs.insert(make_data(uri))
                model.insert(uri, clock["now"])
            else:
                found = cs.find(Interest(name=Name(uri))) is not None
                assert found == model.find(uri, clock["now"])
        assert {str(n) for n in (f"/{c}" for c in "abcde") if n in cs} == set(model.entries)
        assert (cs.hits, cs.misses) == (model.hits, model.misses)
        assert (cs.insertions, cs.evictions) == (model.insertions, model.evictions)


class TestPit:
    def test_insert_creates_entry(self):
        pit = PendingInterestTable()
        entry, is_new = pit.insert(Interest(name=Name("/a")), in_face_id=1)
        assert is_new
        assert entry.downstream_faces() == [1]
        assert len(pit) == 1

    def test_aggregation_of_same_name(self):
        pit = PendingInterestTable()
        pit.insert(Interest(name=Name("/a")), in_face_id=1)
        _, is_new = pit.insert(Interest(name=Name("/a")), in_face_id=2)
        assert not is_new
        assert pit.aggregated == 1
        assert len(pit) == 1

    def test_duplicate_nonce_detection(self):
        pit = PendingInterestTable()
        interest = Interest(name=Name("/a"))
        pit.insert(interest, in_face_id=1)
        assert pit.is_duplicate_nonce(interest)
        other = Interest(name=Name("/a"))
        assert not pit.is_duplicate_nonce(other)

    def test_satisfy_returns_downstream_faces_and_removes_entry(self):
        pit = PendingInterestTable()
        pit.insert(Interest(name=Name("/a")), in_face_id=1)
        pit.insert(Interest(name=Name("/a")), in_face_id=2)
        faces = pit.satisfy(make_data("/a"))
        assert sorted(faces) == [1, 2]
        assert len(pit) == 0
        assert pit.satisfied == 1

    def test_prefix_entry_satisfied_by_longer_data(self):
        pit = PendingInterestTable()
        pit.insert(Interest(name=Name("/a"), can_be_prefix=True), in_face_id=3)
        assert pit.satisfy(make_data("/a/b/c")) == [3]

    def test_exact_entry_not_satisfied_by_longer_data(self):
        pit = PendingInterestTable()
        pit.insert(Interest(name=Name("/a")), in_face_id=3)
        assert pit.satisfy(make_data("/a/b")) == []

    def test_record_out_and_upstreams(self):
        pit = PendingInterestTable()
        interest = Interest(name=Name("/a"))
        entry, _ = pit.insert(interest, in_face_id=1)
        pit.record_out(interest, out_face_id=9)
        assert entry.upstream_faces() == [9]

    def test_expiry_removes_old_entries(self):
        clock = {"now": 0.0}
        pit = PendingInterestTable(clock=lambda: clock["now"])
        pit.insert(Interest(name=Name("/a"), lifetime=1.0), in_face_id=1)
        clock["now"] = 0.5
        assert pit.expire() == []
        clock["now"] = 2.0
        expired = pit.expire()
        assert len(expired) == 1
        assert len(pit) == 0

    def test_remove_specific_entry(self):
        pit = PendingInterestTable()
        interest = Interest(name=Name("/a"))
        pit.insert(interest, in_face_id=1)
        pit.remove(interest)
        assert len(pit) == 0

    def test_stats(self):
        pit = PendingInterestTable()
        pit.insert(Interest(name=Name("/a")), in_face_id=1)
        stats = pit.stats()
        assert stats["size"] == 1

    def test_record_out_extends_entry_lifetime(self):
        """A later out-record pushes the whole entry's expiry out; the lazy
        heap must revalidate instead of dropping at the first deadline."""
        clock = {"now": 0.0}
        pit = PendingInterestTable(clock=lambda: clock["now"])
        interest = Interest(name=Name("/a"), lifetime=1.0)
        pit.insert(interest, in_face_id=1)
        clock["now"] = 0.8
        pit.record_out(interest, out_face_id=9)  # expiry now 1.8
        clock["now"] = 1.2
        assert pit.expire() == []  # first deadline (1.0) passed, entry extended
        assert len(pit) == 1
        clock["now"] = 2.0
        expired = pit.expire()
        assert len(expired) == 1
        assert pit.expired == 1
        assert len(pit) == 0

    def test_expire_after_satisfy_skips_stale_heap_entries(self):
        clock = {"now": 0.0}
        pit = PendingInterestTable(clock=lambda: clock["now"])
        pit.insert(Interest(name=Name("/a"), lifetime=1.0), in_face_id=1)
        pit.satisfy(make_data("/a"))
        clock["now"] = 5.0
        assert pit.expire() == []
        assert pit.expired == 0

    def test_reinserted_name_not_expired_by_stale_deadline(self):
        clock = {"now": 0.0}
        pit = PendingInterestTable(clock=lambda: clock["now"])
        first = Interest(name=Name("/a"), lifetime=1.0)
        pit.insert(first, in_face_id=1)
        pit.satisfy(make_data("/a"))
        clock["now"] = 1.5  # first deadline has passed
        second = Interest(name=Name("/a"), lifetime=10.0)
        pit.insert(second, in_face_id=2)
        assert pit.expire() == []  # stale heap item must not kill the new entry
        assert len(pit) == 1

    def test_satisfy_matches_entries_at_every_prefix_depth(self):
        pit = PendingInterestTable()
        pit.insert(Interest(name=Name("/"), can_be_prefix=True), in_face_id=1)
        pit.insert(Interest(name=Name("/a"), can_be_prefix=True), in_face_id=2)
        pit.insert(Interest(name=Name("/a/b/c"), can_be_prefix=True), in_face_id=3)
        pit.insert(Interest(name=Name("/a/b/c")), in_face_id=4)  # exact
        pit.insert(Interest(name=Name("/a/x"), can_be_prefix=True), in_face_id=5)
        faces = pit.satisfy(make_data("/a/b/c"))
        assert sorted(faces) == [1, 2, 3, 4]
        assert len(pit) == 1  # only the /a/x prefix entry remains

    def test_find_matching_agrees_with_matches_data(self):
        pit = PendingInterestTable()
        pit.insert(Interest(name=Name("/a"), can_be_prefix=True), in_face_id=1)
        pit.insert(Interest(name=Name("/a/b")), in_face_id=2)
        pit.insert(Interest(name=Name("/other")), in_face_id=3)
        data = make_data("/a/b")
        matched = pit.find_matching(data)
        assert {str(e.name) for e in matched} == {"/a", "/a/b"}
        for entry in pit.entries():
            assert entry.matches_data(data) == (entry in matched)

    def test_prefix_entry_count_returns_to_zero(self):
        """Every removal path (satisfy, remove, remove_from_key, expire)
        keeps the live CanBePrefix count exact."""
        clock = {"now": 0.0}
        pit = PendingInterestTable(clock=lambda: clock["now"])

        def insert(uri, prefix, lifetime=4.0):
            interest = Interest(name=Name(uri), can_be_prefix=prefix, lifetime=lifetime)
            pit.insert(interest, in_face_id=1)
            return interest

        insert("/a", True)
        insert("/a", True)  # aggregated: still one entry
        insert("/a/b", False)
        removed = insert("/r", True)
        insert("/k", True)
        insert("/x", True, lifetime=1.0)
        insert("/x/y", False, lifetime=1.0)
        assert pit.prefix_entries == 4
        assert sorted(pit.satisfy(make_data("/a/b"))) == [1]  # /a prefix + /a/b exact
        assert pit.prefix_entries == 3
        pit.remove(removed)
        pit.remove(removed)  # already gone: no double count
        pit.remove_from_key((Name("/k"), True))
        assert pit.prefix_entries == 1
        clock["now"] = 2.0
        assert {str(entry.name) for entry in pit.expire()} == {"/x", "/x/y"}
        assert pit.prefix_entries == 0
        assert len(pit) == 0

    def test_exact_only_table_skips_prefix_probes(self, monkeypatch):
        pit = PendingInterestTable()
        pit.insert(Interest(name=Name("/a/b/c")), in_face_id=1)
        calls = []
        original = Name.prefix
        monkeypatch.setattr(Name, "prefix", lambda self, n: calls.append(n) or original(self, n))
        assert pit.satisfy(make_data("/a/b/c")) == [1]
        assert calls == []
        pit.insert(Interest(name=Name("/a"), can_be_prefix=True), in_face_id=2)
        assert pit.satisfy(make_data("/a/b/c")) == [2]
        assert calls == [0, 1, 2, 3]

    @given(ops=st.lists(
        st.tuples(st.sampled_from(["insert", "satisfy", "remove", "remove_key", "expire"]),
                  st.sampled_from(["/", "/a", "/a/b", "/c"]), st.booleans()),
        max_size=40,
    ))
    def test_prefix_entry_count_matches_live_entries(self, ops):
        clock = {"now": 0.0}
        pit = PendingInterestTable(clock=lambda: clock["now"])
        for kind, uri, prefix in ops:
            clock["now"] += 0.5
            if kind == "insert":
                pit.insert(Interest(name=Name(uri), can_be_prefix=prefix, lifetime=1.0), 1)
            elif kind == "satisfy":
                pit.satisfy(make_data(uri))
            elif kind == "remove":
                pit.remove(Interest(name=Name(uri), can_be_prefix=prefix))
            elif kind == "remove_key":
                pit.remove_from_key((Name(uri), prefix))
            else:
                pit.expire()
            assert pit.prefix_entries == sum(e.can_be_prefix for e in pit.entries())


class TestNameTreeAndFib:
    def test_exact_and_lpm(self):
        tree = NameTree()
        tree.insert("/a")
        tree.insert("/a/b/c")
        assert tree.exact("/a/b") is None
        match = tree.longest_prefix_match("/a/b/c/d")
        assert match.prefix == Name("/a/b/c")
        match = tree.longest_prefix_match("/a/x")
        assert match.prefix == Name("/a")

    def test_lpm_no_match(self):
        tree = NameTree()
        tree.insert("/a")
        assert tree.longest_prefix_match("/b/c") is None

    def test_remove_prunes(self):
        tree = NameTree()
        tree.insert("/a/b/c")
        assert tree.remove("/a/b/c")
        assert len(tree) == 0
        assert not tree.remove("/a/b/c")

    def test_remove_keeps_other_branches(self):
        tree = NameTree()
        tree.insert("/a/b")
        tree.insert("/a/c")
        tree.remove("/a/b")
        assert tree.exact("/a/c") is not None

    def test_entries_iteration(self):
        tree = NameTree()
        for prefix in ("/b", "/a", "/a/x"):
            tree.insert(prefix)
        prefixes = {str(entry.prefix) for entry in tree.entries()}
        assert prefixes == {"/b", "/a", "/a/x"}

    def test_fib_add_and_lookup(self):
        fib = Fib()
        fib.add_route("/ndn/k8s/compute", face_id=1, cost=10)
        fib.add_route("/ndn/k8s/data", face_id=2, cost=5)
        entry = fib.lookup("/ndn/k8s/compute/app=BLAST")
        assert entry is not None
        assert entry.best().face_id == 1
        assert fib.lookup("/ndn/k8s/data/file").best().face_id == 2

    def test_fib_longest_prefix_wins(self):
        fib = Fib()
        fib.add_route("/ndn", face_id=1)
        fib.add_route("/ndn/k8s/compute", face_id=2)
        assert fib.lookup("/ndn/k8s/compute/x").best().face_id == 2
        assert fib.lookup("/ndn/other").best().face_id == 1

    def test_fib_nexthops_sorted_by_cost(self):
        fib = Fib()
        fib.add_route("/a", face_id=1, cost=20)
        fib.add_route("/a", face_id=2, cost=5)
        entry = fib.lookup("/a/x")
        assert [hop.face_id for hop in entry.nexthops] == [2, 1]

    def test_fib_update_existing_nexthop_cost(self):
        fib = Fib()
        fib.add_route("/a", face_id=1, cost=20)
        fib.add_route("/a", face_id=1, cost=1)
        entry = fib.exact("/a")
        assert len(entry.nexthops) == 1
        assert entry.best().cost == 1

    def test_fib_remove_route_drops_empty_entry(self):
        fib = Fib()
        fib.add_route("/a", face_id=1)
        assert fib.remove_route("/a", 1)
        assert fib.lookup("/a/b") is None
        assert len(fib) == 0

    def test_fib_remove_face_everywhere(self):
        fib = Fib()
        fib.add_route("/a", face_id=1)
        fib.add_route("/b", face_id=1)
        fib.add_route("/b", face_id=2)
        assert fib.remove_face(1) == 2
        assert fib.lookup("/a/x") is None
        assert fib.lookup("/b/x").best().face_id == 2

    def test_fib_invalid_face_rejected(self):
        with pytest.raises(NDNError):
            Fib().add_route("/a", face_id=-1)

    def test_fib_prefixes_listing(self):
        fib = Fib()
        fib.add_route("/a", 1)
        fib.add_route("/b/c", 2)
        assert {str(p) for p in fib.prefixes()} == {"/a", "/b/c"}


_name_strategy = st.lists(
    st.text(alphabet="abcdef", min_size=1, max_size=3), min_size=1, max_size=5
).map(lambda parts: Name(parts))


class TestFibProperties:
    @given(prefixes=st.lists(_name_strategy, min_size=1, max_size=20, unique_by=str),
           query=_name_strategy)
    def test_lpm_returns_longest_matching_registered_prefix(self, prefixes, query):
        fib = Fib()
        for index, prefix in enumerate(prefixes):
            fib.add_route(prefix, face_id=index + 1)
        entry = fib.lookup(query)
        matching = [p for p in prefixes if p.is_prefix_of(query)]
        if not matching:
            assert entry is None
        else:
            assert entry is not None
            assert entry.prefix == max(matching, key=len)


from collections import OrderedDict


class _CountingEntries(OrderedDict):
    """OrderedDict instrumented to count recency updates."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.move_calls = 0

    def move_to_end(self, *args, **kwargs):
        self.move_calls += 1
        return super().move_to_end(*args, **kwargs)


class TestUnboundedCapacity:
    """capacity=None: eviction can never trigger, so hits must skip the
    recency/frequency bookkeeping entirely (the ~8% ``move_to_end`` cost on
    exact-match-heavy workloads flagged in the ROADMAP)."""

    def test_unbounded_store_never_evicts(self):
        cs = ContentStore(capacity=None)
        for i in range(5000):
            cs.insert(make_data(f"/n/{i}"))
        assert len(cs) == 5000
        assert cs.evictions == 0

    def test_unbounded_lru_hit_skips_move_to_end(self):
        """The regression guard for the fix: zero recency updates on the
        unbounded hit path (deterministic, unlike a timing assertion)."""
        cs = ContentStore(capacity=None, policy=CachePolicy.LRU)
        for i in range(100):
            cs.insert(make_data(f"/n/{i}"))
        counting = _CountingEntries(cs._entries)
        cs._entries = counting
        for i in range(100):
            assert cs.find(Interest(name=Name(f"/n/{i}"))) is not None
        assert counting.move_calls == 0
        assert cs.hits == 100

    def test_bounded_lru_hit_still_updates_recency(self):
        """Control for the instrumented test above: a bounded store keeps
        paying move_to_end, and recency still decides eviction."""
        cs = ContentStore(capacity=100, policy=CachePolicy.LRU)
        for i in range(100):
            cs.insert(make_data(f"/n/{i}"))
        counting = _CountingEntries(cs._entries)
        cs._entries = counting
        for i in range(100):
            cs.find(Interest(name=Name(f"/n/{i}")))
        assert counting.move_calls == 100

    def test_unbounded_lfu_skips_bucket_maintenance(self):
        cs = ContentStore(capacity=None, policy=CachePolicy.LFU)
        for i in range(10):
            cs.insert(make_data(f"/n/{i}"))
        for _ in range(3):
            cs.find(Interest(name=Name("/n/0")))
        assert cs._freq_buckets == {}
        assert cs.hits == 3

    def test_rebounding_capacity_restores_lru_eviction_order(self):
        """Recency order is rebuilt from access times when an unbounded
        store becomes bounded: the least-recently-touched entries evict."""
        clock = {"now": 0.0}
        cs = ContentStore(capacity=None, policy=CachePolicy.LRU,
                          clock=lambda: clock["now"])
        for i, uri in enumerate(("/a", "/b", "/c", "/d")):
            clock["now"] = float(i)
            cs.insert(make_data(uri))
        clock["now"] = 10.0
        cs.find(Interest(name=Name("/a")))  # /a becomes most recent
        cs.capacity = 2
        assert len(cs) == 2
        assert "/a" in cs and "/d" in cs
        assert "/b" not in cs and "/c" not in cs

    def test_rebounding_capacity_keeps_fifo_arrival_order(self):
        """FIFO order must survive the unbounded round-trip: a hit (or a
        refresh, which updates arrival_time for freshness) must not
        re-queue the entry — the dict's insertion order is authoritative."""
        clock = {"now": 0.0}
        cs = ContentStore(capacity=None, policy=CachePolicy.FIFO,
                          clock=lambda: clock["now"])
        for i, uri in enumerate(("/a", "/b", "/c")):
            clock["now"] = float(i)
            cs.insert(make_data(uri))
        clock["now"] = 10.0
        cs.find(Interest(name=Name("/a")))  # a late hit on the oldest entry
        cs.insert(make_data("/a"))          # and a refresh: neither re-queues
        cs.capacity = 2
        assert "/a" not in cs  # oldest arrival evicts first, despite the hit
        assert "/b" in cs and "/c" in cs

    def test_rebounding_capacity_restores_lfu_buckets(self):
        cs = ContentStore(capacity=None, policy=CachePolicy.LFU)
        for uri in ("/a", "/b", "/c"):
            cs.insert(make_data(uri))
        for _ in range(2):
            cs.find(Interest(name=Name("/a")))
        cs.find(Interest(name=Name("/b")))
        cs.capacity = 2  # rebuilt buckets: /c has 0 hits and evicts first
        assert "/c" not in cs
        assert "/a" in cs and "/b" in cs
        # Bucket maintenance is live again: a new insert can evict by freq.
        cs.insert(make_data("/d"))
        assert len(cs) == 2
        assert "/d" in cs and "/a" in cs

    def test_unbounded_stats_report_infinite_capacity(self):
        cs = ContentStore(capacity=None)
        assert cs.stats()["capacity"] == float("inf")

    def test_negative_capacity_still_rejected_via_setter(self):
        cs = ContentStore(capacity=4)
        with pytest.raises(NDNError):
            cs.capacity = -1
