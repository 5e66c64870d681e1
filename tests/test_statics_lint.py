"""Invariant linter: every rule must fire on a minimal violating snippet,
stay quiet on the sanctioned idioms, and find the shipped tree clean."""

from __future__ import annotations

import textwrap
from pathlib import Path

import pytest

from repro.statics.lint import lint_file, lint_paths, lint_source

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


def codes(source, module_rel="repro/simulator/fake.py"):
    return [
        v.code
        for v in lint_source(textwrap.dedent(source), module_rel=module_rel)
    ]


class TestSTA001WallClock:
    def test_time_time_fires(self):
        assert codes("import time\nt = time.time()\n") == ["STA001"]

    def test_perf_counter_fires(self):
        assert codes(
            "from time import perf_counter\nt = perf_counter()\n"
        ) == ["STA001"]

    def test_datetime_now_fires(self):
        assert codes(
            "import datetime\nd = datetime.datetime.now()\n"
        ) == ["STA001"]

    def test_aliased_import_fires(self):
        assert codes("import time as t\nx = t.monotonic()\n") == ["STA001"]

    def test_wallclock_module_is_allowed(self):
        assert (
            codes(
                "import time\nt = time.perf_counter()\n",
                module_rel="repro/util/wallclock.py",
            )
            == []
        )

    def test_engine_clock_attribute_is_fine(self):
        # `self.clock` / `sim.time` style attribute access never fires
        assert codes("t = sim.clock\nu = self.time\n") == []


class TestSTA002Rng:
    def test_numpy_default_rng_fires(self):
        assert codes(
            "import numpy as np\nr = np.random.default_rng(3)\n"
        ) == ["STA002"]

    def test_numpy_randomstate_fires(self):
        assert codes(
            "import numpy\nr = numpy.random.RandomState(3)\n"
        ) == ["STA002"]

    def test_stdlib_random_fires(self):
        assert codes("import random\nx = random.random()\n") == ["STA002"]

    def test_rng_module_is_allowed(self):
        assert (
            codes(
                "import numpy as np\nr = np.random.default_rng(0)\n",
                module_rel="repro/util/rng.py",
            )
            == []
        )

    def test_generator_method_on_local_is_fine(self):
        # drawing from an injected generator is the sanctioned idiom
        assert codes("def f(rng):\n    return rng.integers(0, 4)\n") == []


class TestSTA003TableWrites:
    def test_attribute_assignment_fires(self):
        assert codes("r.first_hops = ()\n") == ["STA003"]

    def test_subscript_chain_write_fires(self):
        assert codes("r.next_hops[0][1] = (2,)\n") == ["STA003"]

    def test_augmented_write_fires(self):
        assert codes("r.channel_class[3] += 1\n") == ["STA003"]

    @pytest.mark.parametrize(
        "write",
        [
            "r.candidate_sets = ((),)\n",
            "r.next_idx[0, 1] = 2\n",
            "r.first_idx[0][1] += 1\n",
        ],
    )
    def test_index_table_writes_fire(self, write):
        assert codes(write) == ["STA003"]

    def test_builder_module_is_allowed(self):
        assert (
            codes("r.first_hops = ()\n", module_rel="repro/routing/table.py")
            == []
        )

    def test_reading_tables_is_fine(self):
        assert codes("x = r.first_hops[0][1]\n") == []


class TestTablesReadOnly:
    """STA003 catches writes in source; the arrays refuse them at run
    time, for built, decoded, remapped and derived routings alike."""

    @pytest.fixture(scope="class")
    def routings(self):
        from repro.core.downup import build_down_up_routing
        from repro.faults.controller import remap_routing
        from repro.routing.serialization import routing_from_json, routing_to_json
        from repro.topology.generator import random_irregular_topology

        topo = random_irregular_topology(12, 4, rng=5)
        built = build_down_up_routing(topo, rng=1)
        return {
            "built": built,
            "decoded": routing_from_json(routing_to_json(built), verify=False),
            "remapped": remap_routing(built, topo, list(range(topo.n))),
            "deterministic": built.deterministic(rng=2),
        }

    @pytest.mark.parametrize("kind", ["built", "decoded", "remapped", "deterministic"])
    @pytest.mark.parametrize(
        "table", ["dist", "next_idx", "first_idx", "candidate_matrix", "candidate_sizes"]
    )
    def test_in_place_write_raises(self, routings, kind, table):
        array = getattr(routings[kind], table)
        with pytest.raises(ValueError, match="read-only"):
            array[(0,) * array.ndim] = 1
        with pytest.raises(ValueError, match="read-only"):
            array[...] = 0


class TestSTA004BuildersVerify:
    UNVERIFIED = """
        def build_fake_routing(topo) -> RoutingFunction:
            return make_tables(topo)
        """
    VERIFIED = """
        def build_fake_routing(topo) -> RoutingFunction:
            return verify_routing(make_tables(topo))
        """

    def test_unverified_builder_fires(self):
        assert codes(self.UNVERIFIED) == ["STA004"]

    def test_verified_builder_is_fine(self):
        assert codes(self.VERIFIED) == []

    def test_string_annotation_also_fires(self):
        src = """
            def build_fake_routing(topo) -> "RoutingFunction":
                return make_tables(topo)
            """
        assert codes(src) == ["STA004"]

    def test_unannotated_helper_is_ignored(self):
        assert codes("def build_fake_routing(topo):\n    return 1\n") == []

    def test_non_builder_name_is_ignored(self):
        src = """
            def assemble_routing(topo) -> RoutingFunction:
                return make_tables(topo)
            """
        assert codes(src) == []


class TestSTA005UnverifiedDeserialization:
    def test_keyword_verify_false_fires(self):
        assert codes("r = routing_from_json(text, verify=False)\n") == [
            "STA005"
        ]

    def test_keyword_validate_false_fires(self):
        assert codes("t = tree_from_json(text, validate=False)\n") == [
            "STA005"
        ]

    def test_positional_false_fires(self):
        assert codes("t = load_tree(path, False)\n") == ["STA005"]

    def test_attribute_call_fires(self):
        assert codes(
            "r = serialization.load_routing(path, verify=False)\n"
        ) == ["STA005"]

    def test_artifact_cache_is_allowed(self):
        assert (
            codes(
                "r = routing_from_json(text, verify=False)\n",
                module_rel="repro/experiments/artifacts.py",
            )
            == []
        )

    def test_default_verification_is_fine(self):
        assert codes("r = load_routing(path)\n") == []

    def test_explicit_true_is_fine(self):
        assert codes("r = routing_from_json(text, verify=True)\n") == []

    def test_variable_flag_is_fine(self):
        # pass-through of a caller-supplied flag is not a literal bypass
        assert codes("r = routing_from_json(text, verify=flag)\n") == []

    def test_unguarded_loader_is_ignored(self):
        assert codes("x = parse_thing(text, verify=False)\n") == []


class TestSTA006RandomnessReferences:
    def test_unbound_constructor_reference_fires(self):
        # not a call, so STA002 stays quiet — STA006 catches the smuggle
        assert codes(
            "import numpy as np\nfactory = np.random.default_rng\n"
        ) == ["STA006"]

    def test_module_object_as_argument_fires(self):
        assert codes(
            "import numpy as np\nmake(np.random)\n"
        ) == ["STA006"]

    def test_from_import_binding_fires(self):
        assert codes(
            "from numpy.random import default_rng\nf = default_rng\n"
        ) == ["STA006"]

    def test_call_reports_sta002_exactly_once(self):
        # the call target is STA002's domain; STA006 must not double-report
        assert codes(
            "import numpy as np\nr = np.random.default_rng(3)\n"
        ) == ["STA002"]

    def test_annotation_is_exempt(self):
        assert codes(
            "import numpy as np\n"
            "def f(rng: np.random.Generator) -> np.random.Generator:\n"
            "    return rng\n"
        ) == []

    def test_annassign_annotation_is_exempt(self):
        assert codes(
            "import numpy as np\nrng: np.random.Generator = make()\n"
        ) == []

    def test_rng_module_is_allowed(self):
        assert (
            codes(
                "import numpy as np\nfactory = np.random.default_rng\n",
                module_rel="repro/util/rng.py",
            )
            == []
        )

    def test_stdlib_random_is_not_sta006(self):
        # stdlib `random` is STA002's concern (on call); bare references
        # to it are not numpy.random and STA006 stays quiet
        assert codes("import random\nr = random\n") == []

    def test_vectorized_engine_modules_are_clean(self):
        # the numpy array-engine modules: randomness must flow through
        # repro.util.rng there too, references included
        for rel in (
            "simulator/batch_engine.py",
            "simulator/vec_state.py",
            "simulator/replica_batch.py",
        ):
            violations = lint_file(SRC / rel)
            assert violations == [], "\n".join(
                v.render() for v in violations
            )


class TestSTA008CheckerIndependence:
    CHECKER = "repro/statics/check.py"

    def test_absolute_repro_import_fires(self):
        assert codes(
            "from repro.routing.channel_graph import dependency_adjacency\n",
            module_rel=self.CHECKER,
        ) == ["STA008"]

    def test_plain_import_fires(self):
        assert codes("import repro.core.downup\n", module_rel=self.CHECKER) == [
            "STA008"
        ]

    def test_relative_import_fires(self):
        assert codes(
            "from .certificates import compute_digest\n",
            module_rel=self.CHECKER,
        ) == ["STA008"]

    def test_import_inside_a_function_fires(self):
        src = """
            def check(cert):
                from repro.statics import certificates
                return certificates
            """
        assert codes(src, module_rel=self.CHECKER) == ["STA008"]

    def test_stdlib_and_numpy_are_clean(self):
        src = """
            import hashlib
            import itertools
            import json
            from typing import List

            import numpy as np
            """
        assert codes(src, module_rel=self.CHECKER) == []

    def test_other_modules_may_import_repro(self):
        assert codes("from repro.statics.check import recheck\n") == []


class TestSTA009StoreInstances:
    ENTRY = "repro/experiments/live_resilience.py"

    @pytest.mark.parametrize(
        "src",
        [
            "from repro.experiments.artifacts import ArtifactCache\n"
            "cache = ArtifactCache(path)\n",
            "from repro.experiments import artifacts\n"
            "cache = artifacts.ArtifactCache(path, max_memory_entries=0)\n",
        ],
    )
    def test_private_instance_fires(self, src):
        assert codes(src, module_rel=self.ENTRY) == ["STA009"]

    def test_process_binding_is_fine(self):
        src = """
            from repro.experiments.artifacts import set_process_cache
            cache = set_process_cache(path)
            """
        assert codes(src, module_rel=self.ENTRY) == []

    @pytest.mark.parametrize(
        "module", ["repro/experiments/artifacts.py", "repro/experiments/parallel.py"]
    )
    def test_store_and_executors_are_allowed(self, module):
        assert codes("cache = ArtifactCache(None)\n", module_rel=module) == []


class TestMachinery:
    def test_syntax_error_reported_as_sta000(self):
        assert codes("def broken(:\n") == ["STA000"]

    def test_violation_render_carries_location(self):
        (v,) = lint_source(
            "import time\nt = time.time()\n",
            path="src/repro/simulator/fake.py",
            module_rel="repro/simulator/fake.py",
        )
        assert v.render().startswith("src/repro/simulator/fake.py:2:")
        assert "STA001" in v.render()

    def test_module_rel_inferred_from_path(self):
        # no explicit module_rel: the repro/... suffix of the path decides
        assert (
            lint_source(
                "import time\nt = time.time()\n",
                path="/anywhere/src/repro/util/wallclock.py",
            )
            == []
        )


def test_shipped_tree_is_clean():
    violations = lint_paths([SRC])
    assert violations == [], "\n".join(v.render() for v in violations)
