"""Unit tests for the network fabric and RPC layer."""

import pytest

from repro.simnet.network import Link, Network
from repro.simnet.rpc import RpcEndpoint, RpcTimeout


class TestLinks:
    def test_constant_latency_delivery(self, sim, network):
        inbox = network.register("dst")
        network.send("src", "dst", "hello")
        sim.run()
        assert len(inbox) == 1
        envelope = inbox.try_get()
        assert envelope.payload == "hello"
        assert sim.now == pytest.approx(14.0)

    def test_explicit_link_overrides_default(self, sim, network):
        inbox = network.register("dst")
        network.connect("src", "dst", Link(latency_us=2.0))
        network.send("src", "dst", "fast")
        sim.run()
        assert sim.now == pytest.approx(2.0)
        assert len(inbox) == 1

    def test_lossy_link_drops(self, sim):
        network = Network(sim, Link(latency_us=1.0, loss=1.0), seed=1)
        network.register("dst")
        for _ in range(10):
            network.send("src", "dst", "x")
        sim.run()
        assert network.dropped == 10
        assert network.delivered == 0

    def test_jitter_can_reorder(self, sim):
        network = Network(sim, Link(latency_us=1.0, jitter_us=50.0), seed=3)
        received = []
        network.register_callback("dst", lambda env: received.append(env.payload))
        for i in range(30):
            sim.schedule(i * 0.01, network.send, "src", "dst", i)
        sim.run()
        assert sorted(received) == list(range(30))
        assert received != list(range(30))  # jitter reordered something

    def test_down_endpoint_drops(self, sim, network):
        network.register("dst")
        network.set_down("dst")
        network.send("src", "dst", "x")
        sim.run()
        assert network.dropped == 1

    def test_unknown_endpoint_drops(self, sim, network):
        network.send("src", "ghost", "x")
        sim.run()
        assert network.dropped == 1

    def test_duplicate_registration_rejected(self, sim, network):
        network.register("dup")
        with pytest.raises(ValueError):
            network.register("dup")

    def test_reregistration_after_unregister_clears_down(self, sim, network):
        network.register("node")
        network.set_down("node")
        network.unregister("node")
        inbox = network.register("node")
        network.send("src", "node", "back")
        sim.run()
        assert len(inbox) == 1


class TestRpc:
    def _echo_server(self, sim, endpoint):
        def loop():
            while True:
                request = yield endpoint.requests.get()
                endpoint.respond(request, ("echo", request.payload))

        sim.process(loop())

    def test_call_roundtrip(self, sim, network):
        server = RpcEndpoint(sim, network, "server")
        client = RpcEndpoint(sim, network, "client")
        self._echo_server(sim, server)

        def body():
            value = yield client.call_event("server", "ping")
            return (sim.now, value)

        at, value = sim.run_process(body())
        assert value == ("echo", "ping")
        assert at == pytest.approx(28.0)  # one RTT over the 14µs default link

    def test_oneway_message(self, sim, network):
        server = RpcEndpoint(sim, network, "server")
        client = RpcEndpoint(sim, network, "client")
        client.send("server", {"kind": "notify"})
        sim.run()
        assert len(server.messages) == 1
        envelope = server.messages.try_get()
        assert envelope.payload == {"kind": "notify"}  # unwrapped payload
        assert envelope.src == "client"

    def test_call_with_retransmission_succeeds_on_lossy_link(self, sim):
        network = Network(sim, Link(latency_us=1.0), seed=5)
        network.connect("client", "server", Link(latency_us=1.0, loss=0.6))
        server = RpcEndpoint(sim, network, "server")
        client = RpcEndpoint(sim, network, "client")
        self._echo_server(sim, server)

        def body():
            value = yield from client.call("server", "data", timeout_us=10.0, max_retries=50)
            return value

        assert sim.run_process(body()) == ("echo", "data")

    def test_call_timeout_raises(self, sim, network):
        RpcEndpoint(sim, network, "server")  # never answers
        client = RpcEndpoint(sim, network, "client")

        def body():
            yield from client.call("server", "x", timeout_us=5.0, max_retries=2)

        proc = sim.process(body())
        sim.run()
        assert not proc.ok
        assert isinstance(proc.value, RpcTimeout)

    def test_failed_endpoint_goes_dark(self, sim, network):
        server = RpcEndpoint(sim, network, "server")
        client = RpcEndpoint(sim, network, "client")
        self._echo_server(sim, server)
        server.fail()
        waiter = client.call_event("server", "ping")
        sim.run()
        assert not waiter.triggered

    def test_concurrent_calls_matched_by_id(self, sim, network):
        server = RpcEndpoint(sim, network, "server")
        client = RpcEndpoint(sim, network, "client")

        def slow_server():
            while True:
                request = yield server.requests.get()
                delay = 10.0 if request.payload == "slow" else 1.0

                def respond_later(req=request, d=delay):
                    def body():
                        yield sim.timeout(d)
                        server.respond(req, req.payload.upper())

                    sim.process(body())

                respond_later()

        sim.process(slow_server())

        def body():
            slow = client.call_event("server", "slow")
            fast = client.call_event("server", "fast")
            values = yield sim.all_of([slow, fast])
            return values

        assert sim.run_process(body()) == ["SLOW", "FAST"]


class TestRpcHandlers:
    """Requests and one-way messages go to handlers, called from the
    delivery itself (DESIGN.md §5: a relay is a handler, not a process)."""

    def test_handlers_see_each_senders_traffic_in_send_order(self, sim, network):
        seen = []
        RpcEndpoint(
            sim, network, "server",
            on_request=lambda request: seen.append(
                ("request", request.src, request.payload, request.received_at)
            ),
            on_message=lambda envelope: seen.append(
                ("message", envelope.src, envelope.payload, sim.now)
            ),
        )
        clients = [RpcEndpoint(sim, network, name) for name in ("a", "b")]
        for index in range(6):
            client = clients[index % 2]
            if index % 3:
                client.send("server", index)
            else:
                client.call_event("server", index)
        sim.run()
        # delivered at the delivery instant, not a wake-up later...
        assert {entry[3] for entry in seen} == {14.0}
        # ...and in send order on every (src, dst) path
        for name in ("a", "b"):
            path = [payload for _kind, src, payload, _at in seen if src == name]
            assert path == sorted(path) and len(path) == 3
        assert sim.events_processed == 6  # one delivery each, no wake-ups

    def test_a_handler_runs_inside_the_delivery_event(self, sim, network):
        order = []
        RpcEndpoint(sim, network, "server", on_message=lambda _e: order.append("handler"))
        client = RpcEndpoint(sim, network, "client")
        client.send("server", "x")
        # same instant, scheduled later: must still come after the handler
        sim.schedule(14.0, order.append, "later at the same instant")
        sim.run()
        assert order == ["handler", "later at the same instant"]

    def test_nothing_is_delivered_after_fail(self, sim, network):
        seen = []
        server = RpcEndpoint(
            sim, network, "server", on_request=seen.append, on_message=seen.append
        )
        client = RpcEndpoint(sim, network, "client")
        client.send("server", "in flight when the server dies")
        client.call_event("server", "so is this")
        sim.schedule(5.0, server.fail)
        sim.run()
        assert seen == []
        assert network.drops["endpoint_down"] == 2

    def test_a_handler_exception_surfaces_from_run(self, sim, network):
        def broken(_request):
            raise KeyError("bug in a handler")

        RpcEndpoint(sim, network, "server", on_request=broken)
        RpcEndpoint(sim, network, "client").call_event("server", "x")
        # the loop this replaced died silently and the endpoint went deaf
        with pytest.raises(KeyError, match="bug in a handler"):
            sim.run()

    def test_default_handlers_fill_the_mailboxes(self, sim, network):
        server = RpcEndpoint(sim, network, "server")
        client = RpcEndpoint(sim, network, "client")
        client.call_event("server", "q")
        client.send("server", "m")
        sim.run()
        assert [request.payload for request in server.requests.items()] == ["q"]
        assert [envelope.payload for envelope in server.messages.items()] == ["m"]

    def test_on_reply_runs_in_the_response_delivery(self, sim, network):
        server = RpcEndpoint(sim, network, "server")
        server.on_request = lambda request: server.respond(request, "pong")
        client = RpcEndpoint(sim, network, "client")
        replies = []
        waiter = client.call_event(
            "server", "ping", on_reply=lambda event: replies.append((sim.now, event.value))
        )
        sim.run()
        assert replies == [(28.0, "pong")] and waiter.value == "pong"
        assert sim.events_processed == 2  # request delivery, response delivery
