"""chclint rule coverage: one bad fixture per rule, plus the clean floor.

Fixtures live in ``tests/fixtures/chclint/``; each ``bad_chcNNN.py`` is a
minimal violation of exactly that rule, ``good.py`` shows the sanctioned
idioms, and ``suppressed.py`` carries inline ``chclint: disable``
comments. The final test is the self-check the CI lint job enforces:
``src/repro`` itself must be chclint-clean.
"""

import json
from pathlib import Path

import pytest

from repro.analysis import lint

FIXTURES = Path(__file__).resolve().parent / "fixtures" / "chclint"
REPO_SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


def fixture_findings(name):
    return lint.check_file(FIXTURES / name)


class TestRules:
    def test_chc001_module_level_randomness(self):
        findings = fixture_findings("bad_chc001.py")
        assert findings, "bad_chc001.py must produce findings"
        assert {f.code for f in findings} == {"CHC001"}
        lines = {f.line for f in findings}
        assert 5 in lines  # random.random() at module level
        assert 9 in lines  # random.choice() inside a function

    def test_chc001_numpy_random_flagged_but_default_rng_allowed(self):
        bad = lint.check_source(
            "import numpy as np\nx = np.random.rand(3)\n", Path("mod.py")
        )
        assert any(f.code == "CHC001" for f in bad)
        good = lint.check_source(
            "import numpy as np\nrng = np.random.default_rng(7)\n", Path("mod.py")
        )
        assert good == []

    def test_chc002_wall_clock(self):
        findings = fixture_findings("bad_chc002.py")
        assert [f.code for f in findings] == ["CHC002"]
        assert findings[0].line == 7
        assert "time.time()" in findings[0].message

    def test_chc002_exempt_under_tools(self, tmp_path):
        tools_dir = tmp_path / "tools"
        tools_dir.mkdir()
        bench = tools_dir / "bench.py"
        bench.write_text("import time\n\nstart = time.time()\n")
        assert lint.check_file(bench) == []

    def test_chc003_set_iteration_feeding_emission(self):
        findings = fixture_findings("bad_chc003.py")
        assert [f.code for f in findings] == ["CHC003"]
        assert findings[0].line == 5  # the `for` statement
        assert "sorted" in findings[0].message

    def test_chc003_dict_values_iteration(self):
        source = (
            "def flush(queues, item):\n"
            "    for q in queues.values():\n"
            "        q.send(item)\n"
        )
        findings = lint.check_source(source, Path("mod.py"))
        assert [f.code for f in findings] == ["CHC003"]

    def test_chc003_sorted_iteration_is_clean(self):
        source = (
            "def flush(queues, item):\n"
            "    for q in sorted(queues.values()):\n"
            "        q.send(item)\n"
        )
        assert lint.check_source(source, Path("mod.py")) == []

    def test_chc004_id_as_persisted_key(self):
        findings = fixture_findings("bad_chc004.py")
        codes = [f.code for f in findings]
        assert codes and set(codes) == {"CHC004"}
        # subscript write, .get() lookup, and membership test all flagged
        assert len(findings) >= 3

    def test_chc005_nf_state_outside_store_api(self):
        findings = fixture_findings(Path("nfs") / "bad_chc005.py")
        codes = [f.code for f in findings]
        assert codes and set(codes) == {"CHC005"}
        messages = " ".join(f.message for f in findings)
        assert "self.count" in messages  # attribute write outside __init__
        assert "global" in messages  # module-global mutation

    def test_chc005_inactive_outside_nfs_dirs(self):
        source = (
            "class C:\n"
            "    def tick(self):\n"
            "        self.count = 1\n"
        )
        assert lint.check_source(source, Path("core/mod.py")) == []

    def test_chc006_declarative_contract(self):
        findings = fixture_findings(Path("nfs") / "bad_chc006.py")
        # attribute, item-of-attribute and augmented writes to the packet
        assert [(f.code, f.line) for f in findings] == [
            ("CHC006", 8), ("CHC006", 9), ("CHC006", 10),
        ]
        assert "copy first" in findings[0].message

    def test_chc006_copy_first_passes(self):
        source = (
            "class GoodNF:\n"
            "    speculative = True\n"
            "    def process(self, packet, state):\n"
            "        out = packet.copy()\n"
            "        out.five_tuple = None\n"
            "        packet = out  # rebinding the name is not a write\n"
            "        yield from state.update('conn', None, 'set', 1)\n"
            "        return [out]\n"
        )
        assert lint.check_source(source, Path("nfs/good_nf.py")) == []

    def test_chc006_inactive_outside_nfs_dirs(self):
        source = (
            "class C:\n"
            "    speculative = True\n"
            "    def process(self, packet, state):\n"
            "        packet.payload = 'x'\n"
        )
        assert lint.check_source(source, Path("core/mod.py")) == []
        assert [
            f.code for f in lint.check_source(source, Path("nfs/mod.py"))
        ] == ["CHC006"]

    def test_chc006_no_opt_in_means_no_contract(self):
        # an NF that is never run ahead is never run twice
        for opt_in in ("", "    speculative = False\n"):
            source = (
                "class PlainNF:\n" + opt_in +
                "    def process(self, packet, state):\n"
                "        packet.payload = 'x'\n"
            )
            assert lint.check_source(source, Path("nfs/plain.py")) == []

    def test_chc007_membership_and_retirement(self):
        findings = fixture_findings("bad_chc007.py")
        codes = [f.code for f in findings]
        assert codes and set(codes) == {"CHC007"}
        # in-place mutator, item assignment, rebind, del, retire_instance,
        # a hand-written drain-then-retire, and the old fail_over_nf: four
        # splitter calls, the member-list rewrite among them —
        # but neither StoreCluster.replace_instance nor the runtime's own
        assert {f.line for f in findings} == {5, 6, 7, 8, 9, 17, 25, 26, 27, 28}
        assert len(findings) == 10
        messages = " ".join(f.message for f in findings)
        assert "ChainRuntime.add_instance / .replace_instance" in messages
        assert "retire_instance" in messages

    def test_chc007_exempt_in_control_plane_modules(self):
        source = (
            "def cutover(rt, s, old, new):\n"
            "    s.hash_members.append(new)\n"
            "    rt.retire_instance(old)\n"
        )
        # the runtime (and the splitter it drives) is the one writer of
        # membership; evacuate and retain may call its retirement; everyone
        # else — recovery included — is flagged for both
        for owner in ("splitter", "chain_runtime"):
            assert lint.check_source(source, Path(f"core/{owner}.py")) == []
        for retirer in ("handover", "cloning"):
            flagged = lint.check_source(source, Path(f"core/{retirer}.py"))
            assert [(f.code, f.line) for f in flagged] == [("CHC007", 2)]
        for caller in (
            "core/recovery.py", "core/autoscaler.py", "ops/director.py", "core/mod.py"
        ):
            flagged = lint.check_source(source, Path(caller))
            assert [f.code for f in flagged] == ["CHC007", "CHC007"]

    def test_chc007_reads_are_not_flagged(self):
        source = (
            "def audit(s):\n"
            "    members = list(s.hash_members)\n"
            "    return s.hash_members[0], len(members)\n"
        )
        assert lint.check_source(source, Path("core/mod.py")) == []

    def test_chc008_raw_transport_imports(self):
        findings = fixture_findings("bad_chc008.py")
        codes = [f.code for f in findings]
        assert codes and set(codes) == {"CHC008"}
        # import pickle / import socket / from pickle / from socket
        assert len(findings) == 4
        assert {f.line for f in findings} == {3, 4, 5, 6}
        messages = " ".join(f.message for f in findings)
        assert "repro.dist.transport" in messages

    def test_chc008_exempt_in_dist_transport(self):
        source = "import socket\nimport pickle\n"
        # the framing layer is the one sanctioned home for raw sockets;
        # the same imports anywhere else are flagged
        assert lint.check_source(source, Path("dist/transport.py")) == []
        flagged = lint.check_source(source, Path("dist/shard.py"))
        assert [f.code for f in flagged] == ["CHC008", "CHC008"]
        flagged = lint.check_source(source, Path("store/transport.py"))
        assert [f.code for f in flagged] == ["CHC008", "CHC008"]

    def test_chc008_submodule_and_alias_forms(self):
        assert [
            f.code
            for f in lint.check_source("import socket as s\n", Path("mod.py"))
        ] == ["CHC008"]
        assert [
            f.code
            for f in lint.check_source(
                "from socket import socket\n", Path("mod.py")
            )
        ] == ["CHC008"]
        # socketserver is a different module, not a raw-socket import
        assert lint.check_source("import socketserver\n", Path("mod.py")) == []

    def test_chc009_private_campaign_pool(self):
        findings = fixture_findings("bad_chc009.py")
        codes = [f.code for f in findings]
        assert codes and set(codes) == {"CHC009"}
        # bare-name and module-attribute construction
        assert {f.line for f in findings} == {8, 12}
        assert "CampaignFamily" in findings[0].message

    def test_chc009_exempt_only_in_the_shared_runner(self):
        source = (
            "from repro.parallel.pool import CampaignPool\n"
            "pool = CampaignPool(jobs=2)\n"
        )
        # one runner: the pool's own package
        assert lint.check_source(source, Path("repro/parallel/campaign.py")) == []
        # a scenario family, the determinism double runs, a benchmark or a
        # tool fanning out its own items is flagged
        for path in (
            "repro/chaos/campaign.py",
            "repro/analysis/determinism.py",
            "repro/analysis/other.py",
            "benchmarks/bench_x.py",
            "tools/x.py",
        ):
            flagged = lint.check_source(source, Path(path))
            assert [f.code for f in flagged] == ["CHC009"], path
        # importing or annotating with the class is not constructing it
        assert lint.check_source(
            "from repro.parallel.pool import CampaignPool\n"
            "def f(pool: CampaignPool): return pool\n",
            Path("repro/chaos/campaign.py"),
        ) == []

    def test_chc010_store_private_mutation(self):
        findings = fixture_findings("bad_chc010.py")
        codes = [f.code for f in findings]
        assert codes and set(codes) == {"CHC010"}
        # rebind, item assignment (one and two levels deep), |=, mutating
        # method (on the attribute and on an item of it), del, and the
        # _log_committed call; the reads on the last line pass
        assert [f.line for f in findings] == [5, 6, 7, 8, 9, 10, 11, 12]
        assert "repro.store.rehome" in findings[0].message

    def test_chc010_exempt_inside_the_store_package_and_on_self(self):
        source = (
            "def seed(dst, src):\n"
            "    dst._pruned_clocks |= src._pruned_clocks\n"
            "    dst._log_committed('k', 1, 0, None)\n"
        )
        assert lint.check_source(source, Path("repro/store/rehome.py")) == []
        for path in ("repro/core/autoscaler.py", "repro/ops/director.py",
                     "repro/dist/store_node.py"):
            flagged = lint.check_source(source, Path(path))
            assert [f.code for f in flagged] == ["CHC010", "CHC010"], path
        # a class's own ``self._data`` is not the store's
        own = "class Cache:\n    def put(self, k, v):\n        self._data[k] = v\n"
        assert lint.check_source(own, Path("repro/core/mod.py")) == []


    def test_chc011_engine_queues_private_to_the_engine(self):
        findings = fixture_findings("bad_chc011.py")
        assert [(f.code, f.line) for f in findings] == [("CHC011", 5)] * 3
        assert "heap_size" in findings[0].message
        source = "def depth(sim):\n    return len(sim._heap)\n"
        assert lint.check_source(source, Path("repro/simnet/engine.py")) == []
        for path in ("repro/simnet/monitor.py", "repro/store/client.py", "tools/x.py"):
            flagged = lint.check_source(source, Path(path))
            assert [f.code for f in flagged] == ["CHC011"], path
        # a class's own ``self._heap`` is not the simulator's
        own = "class Q:\n    def push(self, x):\n        self._heap.append(x)\n"
        assert lint.check_source(own, Path("tests/legacy_engine.py")) == []


    def test_chc012_a_relay_is_a_handler_not_a_process(self):
        findings = fixture_findings("bad_chc012.py")
        # the mailbox loop and the module-level forwarder; the loop that
        # also sleeps a service time is a server and passes
        assert [(f.code, f.line) for f in findings] == [("CHC012", 9), ("CHC012", 33)]
        assert "a relay is a handler, not a process" in findings[0].message
        relay = (
            "def loop(box):\n"
            "    while True:\n"
            "        handle((yield box.get()))\n"
            "def start(sim, box):\n"
            "    sim.process(loop(box))\n"
        )
        for path in ("repro/core/root.py", "repro/store/datastore.py", "tools/x.py"):
            assert [f.code for f in lint.check_source(relay, Path(path))] == ["CHC012"], path
        # the benchmark's direct-drive engine loops time exactly this loop
        assert lint.check_source(relay, Path("benchmarks/perf/direct.py")) == []
        # a second kind of wait makes it a process: a timeout, a delegated RPC
        for extra in ("        yield sim.timeout(1.0)\n", "        yield from call()\n"):
            served = relay.replace("def start", extra + "def start")
            assert lint.check_source(served, Path("repro/core/root.py")) == []
        # a consumer defined elsewhere cannot be judged from here
        elsewhere = "def start(sim, other):\n    sim.process(other.loop())\n"
        assert lint.check_source(elsewhere, Path("repro/core/root.py")) == []


    def test_chc013_import_time_weight_on_a_chain_process(self):
        findings = fixture_findings(Path("repro") / "dist" / "bad_chc013.py")
        # numpy twice, then repro.parallel.campaign / chaos.overload /
        # ops.campaign; function-level imports and campaign-free modules pass
        assert [(f.code, f.line) for f in findings] == [
            ("CHC013", line) for line in (3, 4, 5, 6, 7)
        ]
        assert "numpy" in findings[0].message
        assert "repro.chaos.overload" in findings[3].message
        # known answer: the shard's import of the chaos NFs before they left
        # the campaign runner
        shard = "from repro.chaos.campaign import EntryCounterNF, SinkCounterNF\n"
        for package in ("core", "simnet", "store", "nfs", "traffic", "dist"):
            flagged = lint.check_source(shard, Path(f"src/repro/{package}/mod.py"))
            assert [f.code for f in flagged] == ["CHC013"], package
        for path in ("src/repro/chaos/overload.py", "src/repro/ops/campaign.py",
                     "src/repro/dist/campaign.py", "src/repro/analysis/campaign.py"):
            assert lint.check_source(shard, Path(path)) == [], path
        # numpy at module level is flagged anywhere under repro/, never outside
        numpy = "import numpy as np\n"
        for path in ("src/repro/analysis/lint.py", "src/repro/dist/campaign.py",
                     "src/repro/util.py"):
            assert [f.code for f in lint.check_source(numpy, Path(path))] == ["CHC013"]
        for path in ("benchmarks/plot.py", "tests/test_x.py", "tools/campaign.py"):
            assert lint.check_source(numpy, Path(path)) == [], path

    def test_chc014_a_package_init_re_exports_nothing(self):
        source = (FIXTURES / "bad_chc014.py").read_text()
        init = Path("src/repro/store/__init__.py")
        findings = lint.check_source(source, init)
        # the five repro imports at module level; json and the lazy table pass
        assert [(f.code, f.line) for f in findings] == [
            ("CHC014", line) for line in (7, 8, 9, 10, 11)
        ]
        assert "repro.store.client" in findings[0].message
        assert ".spec" in findings[4].message
        # only a package __init__ under repro/, and not the two that re-export
        for path in ("src/repro/store/client.py", "src/repro/nfs/__init__.py",
                     "src/repro/bench/__init__.py", "benchmarks/__init__.py",
                     "tests/__init__.py"):
            assert lint.check_source(source, Path(path)) == [], path
        assert [f.code for f in lint.check_source(source, Path("src/repro/__init__.py"))] \
            == ["CHC014"] * 5
        # known answer: the store node's path before package inits went empty
        dist = "from repro.dist.transport import (  # noqa: F401\n    Connection,\n)\n"
        flagged = lint.check_source(dist, Path("src/repro/dist/__init__.py"))
        assert [(f.code, f.line) for f in flagged] == [("CHC014", 1)]


class TestMechanics:
    def test_good_fixture_is_clean(self):
        assert fixture_findings("good.py") == []

    def test_inline_suppressions(self):
        assert fixture_findings("suppressed.py") == []

    def test_select_filters_rules(self):
        findings = lint.run_paths([FIXTURES], select={"CHC002"})
        assert findings and all(f.code == "CHC002" for f in findings)

    def test_findings_carry_file_and_line(self):
        findings = lint.run_paths([FIXTURES / "bad_chc001.py"])
        rendered = findings[0].format()
        assert "bad_chc001.py:5:" in rendered
        assert "CHC001" in rendered

    def test_syntax_error_reports_chc000_and_exit_2(self, tmp_path, capsys):
        broken = tmp_path / "broken.py"
        broken.write_text("def oops(:\n")
        assert lint.main([str(broken)]) == 2
        assert "CHC000" in capsys.readouterr().out

    def test_cli_exit_codes(self, capsys):
        assert lint.main([str(FIXTURES / "good.py")]) == 0
        assert lint.main([str(FIXTURES / "bad_chc002.py")]) == 1
        out = capsys.readouterr().out
        assert "CHC002" in out

    def test_cli_json_report(self, capsys):
        assert lint.main([str(FIXTURES / "bad_chc003.py"), "--json"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["tool"] == "chclint"
        assert report["count"] == 1
        assert report["findings"][0]["code"] == "CHC003"
        assert report["findings"][0]["line"] == 5

    def test_unknown_select_code_rejected(self):
        with pytest.raises(SystemExit):
            lint.main([str(FIXTURES / "good.py"), "--select", "CHC999"])


def test_repo_source_is_chclint_clean():
    """The CI lint gate: the repo's own source has zero findings."""
    findings = lint.run_paths([REPO_SRC])
    assert findings == [], "\n".join(f.format() for f in findings)
