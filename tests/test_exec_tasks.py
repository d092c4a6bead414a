"""Task model: canonicalization, digests, per-task seed derivation."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.core import JointSimParams
from repro.errors import ConfigurationError
from repro.exec import SweepTask, canonical_json, derive_seed, spec_digest


class TestCanonicalJson:
    def test_dict_keys_sorted(self):
        assert canonical_json({"b": 1, "a": 2}) == canonical_json({"a": 2, "b": 1})

    def test_tuple_and_list_equivalent(self):
        assert canonical_json((1, 2, 3)) == canonical_json([1, 2, 3])

    def test_numpy_scalars_reduce_to_python(self):
        assert canonical_json(np.int64(7)) == canonical_json(7)
        assert canonical_json(np.float64(0.25)) == canonical_json(0.25)

    def test_dataclass_includes_type_and_fields(self):
        s = canonical_json(JointSimParams(duration_s=5.0))
        assert "JointSimParams" in s
        assert "5.0" in s

    def test_dataclass_field_change_changes_encoding(self):
        a = canonical_json(JointSimParams(duration_s=5.0))
        b = canonical_json(JointSimParams(duration_s=6.0))
        assert a != b

    def test_non_string_dict_key_rejected(self):
        with pytest.raises(ConfigurationError):
            canonical_json({1: "x"})

    def test_opaque_object_rejected(self):
        with pytest.raises(ConfigurationError):
            canonical_json(object())


class TestSweepTask:
    def test_make_sorts_params(self):
        t1 = SweepTask.make("op", b=2, a=1)
        t2 = SweepTask.make("op", a=1, b=2)
        assert t1 == t2
        assert t1.digest == t2.digest

    def test_kwargs_roundtrip(self):
        t = SweepTask.make("op", x=1, y="z")
        assert t.kwargs == {"x": 1, "y": "z"}

    def test_tag_not_part_of_identity(self):
        t1 = SweepTask.make("op", tag="row-1", x=1)
        t2 = SweepTask.make("op", tag=("other", 2), x=1)
        assert t1.digest == t2.digest
        assert t1.seed(0) == t2.seed(0)

    def test_fn_part_of_identity(self):
        assert SweepTask.make("op-a", x=1).digest != SweepTask.make("op-b", x=1).digest

    def test_param_value_part_of_identity(self):
        assert SweepTask.make("op", x=1).digest != SweepTask.make("op", x=2).digest

    def test_picklable_and_hashable(self):
        t = SweepTask.make("op", tag=("g", 0.3), x=1, p=JointSimParams())
        assert pickle.loads(pickle.dumps(t)) == t
        assert len({t, SweepTask.make("op", tag=("g", 0.3), x=1, p=JointSimParams())}) == 1


class TestSeeds:
    def test_seed_deterministic(self):
        assert derive_seed(3, "op", {"x": 1}) == derive_seed(3, "op", {"x": 1})

    def test_seed_varies_with_spec(self):
        assert derive_seed(3, "op", {"x": 1}) != derive_seed(3, "op", {"x": 2})

    def test_seed_varies_with_base(self):
        assert derive_seed(3, "op", {"x": 1}) != derive_seed(4, "op", {"x": 1})

    def test_seed_order_independent(self):
        # The derived seed depends on the spec content, not on any
        # creation-order counter — tasks can be built in any order.
        specs = [{"x": i} for i in range(10)]
        forward = [derive_seed(0, "op", s) for s in specs]
        backward = [derive_seed(0, "op", s) for s in reversed(specs)]
        assert forward == backward[::-1]

    def test_spec_digest_is_hex(self):
        d = spec_digest("op", {"x": 1})
        assert len(d) == 64
        int(d, 16)


class TestWorkloadFor:
    def test_memoized_per_arity_and_constraint(self):
        from repro.exec.ops import workload_for

        assert workload_for(4) is workload_for(4)
        assert workload_for(4, 20.0) is workload_for(4, 20.0)
        assert workload_for(4, 20.0) is not workload_for(4)
        assert workload_for(4, 20.0).latency_constraint_s == pytest.approx(20e-3)

    def test_shared_topology_is_frozen(self):
        """Sharing is safe only because no op can mutate the fabric."""
        import networkx as nx

        from repro.exec.ops import workload_for

        with pytest.raises(nx.NetworkXError):
            workload_for(4).topology.graph.add_edge("h0_0_0", "h0_0_1")
