"""Unit tests for packets, flows, traces, scenarios and replay."""

import dataclasses

import pytest

from repro.simnet.engine import Simulator
from repro.traffic.flows import FlowSpec, flow_packets, interleave
from repro.traffic.packet import (
    ACK,
    FIN,
    FiveTuple,
    PROTO_TCP,
    PROTO_UDP,
    Packet,
    RST,
    SYN,
    scope_fields,
)
from repro.traffic.trace import make_trace, make_trace1, make_trace2
from repro.traffic.trojan import SIGNATURE_ORDER, inject_trojan_signatures
from repro.traffic.workload import ReplaySource, load_interval_us


class TestFiveTuple:
    def test_reversed(self):
        ft = FiveTuple("a", "b", 1, 2, PROTO_TCP)
        assert ft.reversed() == FiveTuple("b", "a", 2, 1, PROTO_TCP)

    def test_canonical_direction_independent(self):
        ft = FiveTuple("b-host", "a-host", 99, 11, PROTO_TCP)
        assert ft.canonical() == ft.reversed().canonical()

    def test_scope_projection(self):
        ft = FiveTuple("1.2.3.4", "5.6.7.8", 10, 20, PROTO_UDP)
        assert scope_fields(ft, ("src_ip",)) == ("1.2.3.4",)
        assert scope_fields(ft, ("dst_ip", "dst_port")) == ("5.6.7.8", 20)


class TestPacketFlags:
    def test_syn_vs_syn_ack(self):
        syn = Packet(FiveTuple("a", "b", 1, 2), flags=SYN)
        syn_ack = Packet(FiveTuple("b", "a", 2, 1), flags=SYN | ACK)
        assert syn.is_syn and not syn.is_syn_ack
        assert syn_ack.is_syn_ack and not syn_ack.is_syn

    def test_fin_rst(self):
        assert Packet(FiveTuple("a", "b", 1, 2), flags=FIN | ACK).is_fin
        assert Packet(FiveTuple("a", "b", 1, 2), flags=RST | ACK).is_rst

    def test_copy_keeps_identity(self):
        packet = Packet(FiveTuple("a", "b", 1, 2))
        packet.clock = 77
        clone = packet.copy()
        assert clone.pkt_id == packet.pkt_id
        assert clone.clock == 77
        assert clone is not packet

    def test_copy_carries_every_field(self):
        # copy() spells the fields out positionally; a field added to the
        # dataclass but not to copy() fails here, where replace() could not
        names = [f.name for f in dataclasses.fields(Packet)]
        distinct = {name: ("value-of", name) for name in names}
        packet = Packet(**distinct)
        clone = packet.copy()
        assert clone == packet and vars(clone) == distinct
        assert list(vars(clone)) == names  # constructor-built: key-sharing dict
        clone.bitvector = 0
        assert packet.bitvector == ("value-of", "bitvector")

    def test_size_bits(self):
        assert Packet(FiveTuple("a", "b", 1, 2), size_bytes=100).size_bits == 800


class TestFlowGeneration:
    def _spec(self, **kwargs):
        defaults = dict(
            five_tuple=FiveTuple("10.0.0.1", "52.0.0.1", 1234, 80),
            n_packets=12,
        )
        defaults.update(kwargs)
        return FlowSpec(**defaults)

    def test_tcp_flow_structure(self):
        packets = [p for _t, p in flow_packets(self._spec())]
        assert packets[0].is_syn
        assert packets[1].is_syn_ack
        assert packets[-1].is_fin

    def test_reset_flow_ends_with_rst(self):
        packets = [p for _t, p in flow_packets(self._spec(reset=True))]
        assert packets[-1].is_rst

    def test_refused_flow_is_syn_then_rst(self):
        packets = [p for _t, p in flow_packets(self._spec(refused=True))]
        assert len(packets) == 2
        assert packets[0].is_syn
        assert packets[1].is_rst
        assert packets[1].five_tuple == packets[0].five_tuple.reversed()

    def test_udp_flow_all_data(self):
        spec = self._spec(
            five_tuple=FiveTuple("10.0.0.1", "52.0.0.1", 53, 53, PROTO_UDP), n_packets=5
        )
        packets = [p for _t, p in flow_packets(spec)]
        assert len(packets) == 5
        assert all(not p.is_syn for p in packets)

    def test_packet_count_matches_spec(self):
        packets = flow_packets(self._spec(n_packets=20))
        assert len(packets) == 20

    def test_arrival_times_monotone(self):
        times = [t for t, _p in flow_packets(self._spec(n_packets=30, gap_us=1.5))]
        assert times == sorted(times)

    def test_interleave_sorts_by_time(self):
        flow_a = flow_packets(self._spec(n_packets=6, start_us=0.0))
        flow_b = flow_packets(
            self._spec(
                five_tuple=FiveTuple("10.0.0.2", "52.0.0.1", 999, 80),
                n_packets=6,
                start_us=0.5,
            )
        )
        merged = interleave([flow_a, flow_b])
        times = [t for t, _p in merged]
        assert times == sorted(times)
        assert len(merged) == 12


class TestTraces:
    def test_trace2_statistics(self):
        stats = make_trace2(scale=0.002).stats()
        assert stats.median_packet_size == 1434
        assert stats.n_connections > 100
        assert stats.n_packets > 5_000

    def test_trace1_statistics(self):
        stats = make_trace1(scale=0.003).stats()
        assert stats.median_packet_size == 368
        # Trace1's signature: few, long connections.
        assert stats.n_packets / stats.n_connections > 100

    def test_deterministic_for_seed(self):
        first = make_trace2(scale=0.0005)
        second = make_trace2(scale=0.0005)
        assert [p.five_tuple for p in first] == [p.five_tuple for p in second]
        assert [p.size_bytes for p in first] == [p.size_bytes for p in second]

    def test_different_seeds_differ(self):
        a = make_trace(2000, 50, [(1434, 1.0)], seed=1)
        b = make_trace(2000, 50, [(1434, 1.0)], seed=2)
        assert [p.five_tuple for p in a] != [p.five_tuple for p in b]

    def test_slice(self):
        trace = make_trace2(scale=0.0005)
        part = trace.slice(10, 20)
        assert len(part) == 10
        assert part.packets[0] is trace.packets[10]

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            make_trace(0, 10, [(100, 1.0)])


class TestTrojanScenario:
    def test_injection_counts(self):
        base = make_trace2(scale=0.002)
        scenario = inject_trojan_signatures(base, n_signatures=5, n_decoys=3)
        assert len(scenario.infected_hosts) == 5
        assert len(scenario.decoy_hosts) == 3
        assert len(scenario.trace) > len(base)

    def test_signature_flows_in_order(self):
        base = make_trace2(scale=0.002)
        scenario = inject_trojan_signatures(base, n_signatures=3, n_decoys=0)
        for host in scenario.infected_hosts:
            firsts = {}
            for index, packet in enumerate(scenario.trace.packets):
                if packet.five_tuple.src_ip == host:
                    port = packet.five_tuple.dst_port
                    firsts.setdefault(port, index)
            positions = [firsts[port] for port in SIGNATURE_ORDER]
            assert positions == sorted(positions)

    def test_decoys_not_in_signature_order(self):
        base = make_trace2(scale=0.002)
        scenario = inject_trojan_signatures(base, n_signatures=1, n_decoys=3)
        for host in scenario.decoy_hosts:
            firsts = {}
            for index, packet in enumerate(scenario.trace.packets):
                if packet.five_tuple.src_ip == host:
                    firsts.setdefault(packet.five_tuple.dst_port, index)
            positions = [firsts[port] for port in SIGNATURE_ORDER]
            assert positions != sorted(positions)

    def test_too_short_trace_rejected(self):
        base = make_trace2(scale=0.0005).slice(0, 100)
        with pytest.raises(ValueError):
            inject_trojan_signatures(base, n_signatures=11)


class TestReplaySource:
    def test_load_interval(self):
        # 1434B at 50% of 10G: 11472 bits / 5000 bits-per-µs
        assert load_interval_us(11472, 0.5) == pytest.approx(2.2944)

    def test_zero_load_rejected(self):
        with pytest.raises(ValueError):
            load_interval_us(1000, 0)

    def test_replay_paces_packets(self, sim):
        trace = make_trace2(scale=0.0005)
        arrivals = []
        source = ReplaySource(
            sim,
            trace.packets[:100],
            lambda p: arrivals.append(sim.now),
            load_fraction=0.5,
        )
        sim.run()
        assert source.injected == 100
        assert len(arrivals) == 100
        assert arrivals == sorted(arrivals)
        assert source.done.triggered

    def test_higher_load_finishes_faster(self):
        def span(load):
            sim = Simulator()
            trace = make_trace2(scale=0.0005)
            ReplaySource(sim, trace.packets[:200], lambda p: None, load_fraction=load)
            return sim.run()

        assert span(1.0) < span(0.3)
