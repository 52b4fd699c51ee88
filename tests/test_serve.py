"""The serve daemon: protocol, coalescing, staleness, failure containment.

Pins the contracts docs/serving.md promises:

* wire schema round-trips (and junk costs one ``bad_request``, not the
  server),
* a burst of scalar events coalesces into ONE ``ProblemDelta`` / one epoch
  bump, bit-equivalent to applying the run one event at a time,
* event responses are composed after their own batch publishes, so the
  answered epoch trails the live model by at most the one in-flight batch,
* an optimizer crash turns into 503-style ``unavailable`` responses -- for
  the crashing batch AND everything after it -- never a hang, while reads
  keep serving the last good epoch,
* a full request queue answers ``overloaded`` (429) immediately,
* ``shutdown`` drains: every already-accepted request is answered before
  the socket closes.
"""

from __future__ import annotations

import socket
import threading
import time

import numpy as np
import pytest

from repro.core.delta import apply_delta, compile_event
from repro.core.transform import build_extended_network
from repro.exceptions import ModelError, ServeError, ServeRequestError
from repro.online.events import (
    CapacityChange,
    CommodityDeparture,
    DemandChange,
)
from repro.online.orchestrator import OnlineOrchestrator
from repro.online.rebuild import apply_event, apply_scalar_overrides
from repro.serve import (
    ServeConfig,
    ServeSession,
    ServerThread,
    merge_scalar_run,
    plan_batch,
    protocol,
)
from repro.serve.client import ServeClient, replay_trace
from repro.scenarios import ChurnSpec, churn_network, churn_trace, figure1_network


def small_network():
    return churn_network(num_nodes=16, num_commodities=3, seed=5)


def quick_config(**overrides):
    base = dict(
        batch_window=0.005,
        max_batch=16,
        refine_iterations=2,
        warmup_iterations=20,
        validate_epochs=True,
    )
    base.update(overrides)
    return ServeConfig(**base)


# ---------------------------------------------------------------- protocol


class TestProtocol:
    def test_request_round_trip(self):
        line = protocol.encode_request("demand", id=7, commodity="c1", rate=3.5)
        request = protocol.parse_request(line)
        assert request.op == "demand"
        assert request.id == 7
        assert request.payload == {"commodity": "c1", "rate": 3.5}
        assert request.is_event

    def test_event_round_trip_covers_every_kind(self):
        network = small_network()
        events = churn_trace(network, ChurnSpec(num_events=60), seed=1)
        kinds = {type(e).__name__ for e in events}
        assert len(kinds) >= 4  # the trace actually exercises the mix
        for event in events:
            op, payload = protocol.event_to_request(event)
            request = protocol.parse_request(
                protocol.encode_request(op, id=1, **payload)
            )
            rebuilt = protocol.request_to_event(request, at_iteration=0)
            assert type(rebuilt) is type(event)
            op2, payload2 = protocol.event_to_request(rebuilt)
            assert (op2, payload2) == (op, payload)

    def test_response_round_trip(self):
        line = protocol.encode_response(3, "demand", decision="admit", epoch=9)
        doc = protocol.decode_response(line)
        assert doc["schema"] == protocol.SERVE_SCHEMA
        assert doc["ok"] is True
        assert (doc["id"], doc["epoch"]) == (3, 9)

    def test_error_response_carries_http_idiom_code(self):
        doc = protocol.decode_response(
            protocol.error_response(4, "demand", "overloaded", "queue full")
        )
        assert doc["ok"] is False
        assert doc["error"]["code"] == 429
        assert doc["error"]["type"] == "overloaded"

    @pytest.mark.parametrize(
        "line",
        [
            b"not json\n",
            b"[1, 2]\n",
            b'{"op": "launch_missiles"}\n',
            b'{"id": 1}\n',
        ],
    )
    def test_junk_raises_request_error(self, line):
        with pytest.raises(ServeRequestError):
            protocol.parse_request(line)

    def test_bad_event_fields_raise(self):
        request = protocol.parse_request(b'{"op": "demand", "commodity": "c1"}\n')
        with pytest.raises(ServeRequestError):
            protocol.request_to_event(request)


# --------------------------------------------------------------- coalescing


class TestCoalescing:
    def test_plan_batch_groups_scalar_runs(self):
        d = DemandChange(at_iteration=0, commodity="c", new_rate=1.0)
        c = CapacityChange(at_iteration=0, node="n", new_capacity=1.0)
        s = CommodityDeparture(at_iteration=0, commodity="c")
        units = plan_batch([d, c, d, s, c, c, s])
        assert [len(u) for u in units] == [3, 1, 2, 1]
        assert units[1] == [s] and units[3] == [s]

    def test_scalar_run_merges_into_one_delta(self):
        network = small_network()
        ext = build_extended_network(network)
        names = [c.name for c in network.commodities]
        nodes = [
            n for n, node in network.physical.nodes.items() if not node.is_sink
        ]
        events = [
            DemandChange(at_iteration=0, commodity=names[0], new_rate=4.0),
            CapacityChange(at_iteration=0, node=nodes[0], new_capacity=9.0),
            DemandChange(at_iteration=0, commodity=names[1], new_rate=2.5),
            # last write wins on a repeated target
            DemandChange(at_iteration=0, commodity=names[0], new_rate=5.0),
        ]
        base = ext.epoch
        delta = merge_scalar_run(ext, events)
        assert delta.base_epoch == base
        assert delta.scalar is not None

        # one delta, one epoch bump (the scalar path patches in place)...
        merged = apply_delta(ext, delta).ext
        assert merged.epoch == base + 1

        # ...bit-equivalent to chaining the events one at a time
        chained = build_extended_network(network)
        for event in events:
            chained = apply_delta(chained, compile_event(chained, event)).ext
        assert chained.epoch == base + len(events)
        np.testing.assert_array_equal(merged.capacity, chained.capacity)
        for view_m, view_c in zip(merged.commodities, chained.commodities):
            assert view_m.max_rate == view_c.max_rate

    def test_merge_rejects_structural_and_empty(self):
        network = small_network()
        ext = build_extended_network(network)
        with pytest.raises(ServeError):
            merge_scalar_run(ext, [])
        with pytest.raises(ServeError):
            merge_scalar_run(
                ext,
                [
                    DemandChange(at_iteration=0, commodity="x", new_rate=1.0),
                    CommodityDeparture(at_iteration=0, commodity="x"),
                ],
            )

    def test_merge_unknown_name_raises_model_error(self):
        network = small_network()
        ext = build_extended_network(network)
        with pytest.raises(ModelError):
            merge_scalar_run(
                ext,
                [
                    DemandChange(at_iteration=0, commodity="nope", new_rate=1.0),
                    DemandChange(at_iteration=0, commodity="nope2", new_rate=1.0),
                ],
            )

    def test_session_bumps_epoch_once_per_scalar_burst(self):
        network = small_network()
        session = ServeSession(
            network, refine_iterations=2, warmup_iterations=20
        )
        session.warmup()
        names = [c.name for c in network.commodities]
        burst = [
            DemandChange(at_iteration=0, commodity=name, new_rate=3.0)
            for name in names
        ]
        before = session.current_epoch()
        outcomes, snapshot = session.process_batch(burst)
        assert session.current_epoch() == before + 1  # N events, ONE epoch
        assert all(o.accepted for o in outcomes)
        assert snapshot.epoch == before + 1
        assert snapshot.validation is not None and snapshot.validation.passed
        session.close()


class TestApplyScalarOverrides:
    def test_matches_chained_apply_event(self):
        network = small_network()
        names = [c.name for c in network.commodities]
        nodes = [
            n for n, node in network.physical.nodes.items() if not node.is_sink
        ]
        rates = {names[0]: 6.0, names[2]: 1.5}
        capacities = {nodes[0]: 11.0, nodes[3]: 2.0}
        merged = apply_scalar_overrides(network, rates, capacities)

        chained = network
        for name, rate in rates.items():
            chained = apply_event(
                chained,
                DemandChange(at_iteration=0, commodity=name, new_rate=rate),
            ).network
        for node, cap in capacities.items():
            chained = apply_event(
                chained,
                CapacityChange(at_iteration=0, node=node, new_capacity=cap),
            ).network

        for node in merged.physical.nodes:
            assert merged.physical.node(node).capacity == pytest.approx(
                chained.physical.node(node).capacity
            )
        for cm, cc in zip(merged.commodities, chained.commodities):
            assert cm.name == cc.name
            assert cm.max_rate == pytest.approx(cc.max_rate)
        # untouched commodities are shared, not copied (delta dirty-set keys
        # off object identity)
        untouched = [
            i for i, c in enumerate(network.commodities) if c.name not in rates
        ]
        for i in untouched:
            assert merged.commodities[i] is network.commodities[i]

    def test_validates_names_and_sinks(self):
        network = small_network()
        sink = next(
            n for n, node in network.physical.nodes.items() if node.is_sink
        )
        with pytest.raises(ModelError):
            apply_scalar_overrides(network, rates={"nope": 1.0})
        with pytest.raises(ModelError):
            apply_scalar_overrides(network, capacities={"nope": 1.0})
        with pytest.raises(ModelError):
            apply_scalar_overrides(network, capacities={sink: 1.0})


# ------------------------------------------------------------------ daemon


class TestServer:
    def test_hello_stats_and_admission_flow(self):
        network = small_network()
        names = [c.name for c in network.commodities]
        with ServerThread(network, config=quick_config()) as port:
            with ServeClient("127.0.0.1", port) as client:
                hello = client.hello()
                assert hello["ok"] is True
                assert hello["server"]["max_batch"] == 16
                assert {c["name"] for c in hello["model"]["commodities"]} == set(
                    names
                )

                response = client.demand(names[0], 2.5)
                assert response["ok"] is True
                assert response["decision"] == "admit"
                assert response["epoch"] >= 1

                rejected = client.demand("no-such-commodity", 2.5)
                assert rejected["ok"] is True
                assert rejected["decision"] == "reject"
                assert "no-such-commodity" in rejected["reason"]

                stats = client.stats()
                assert stats["healthy"] is True
                assert stats["validated"] is True
                assert stats["stats"]["events_accepted"] >= 1
                assert stats["stats"]["events_rejected"] >= 1

    def test_bad_line_costs_one_response_not_the_server(self):
        with ServerThread(small_network(), config=quick_config()) as port:
            with ServeClient("127.0.0.1", port) as client:
                client._sock.sendall(b'{"op": "demand", "id": 99}\n')
                doc = client.read()
                assert doc["ok"] is False
                assert doc["error"]["code"] == 400
                assert doc["id"] == 99
                client._sock.sendall(b"garbage that is not json\n")
                doc = client.read()
                assert doc["ok"] is False
                assert doc["error"]["code"] == 400
                # the connection survived both
                assert client.stats()["ok"] is True

    def test_pipelined_burst_coalesces_and_bounds_staleness(self):
        network = small_network()
        events = churn_trace(network, ChurnSpec(num_events=40), seed=3)
        with ServerThread(network, config=quick_config()) as port:
            with ServeClient("127.0.0.1", port) as client:
                report = replay_trace(client, events, pipeline=8)
                stats = client.stats()
        assert report.events == 40
        assert report.errors == 0
        # coalescing: far fewer epochs than events
        batches = stats["stats"]["batches"]
        assert batches < 40
        assert report.final_epoch >= 1
        # the publish-based staleness bound: an answered epoch trails the
        # live model by at most the one batch in flight
        assert report.max_staleness <= 1
        assert stats["stats"]["validation_failures"] == 0

    def test_backpressure_answers_overloaded(self):
        network = small_network()
        config = quick_config(batch_window=0.3, max_batch=2, queue_limit=2)
        overloaded = 0
        with ServerThread(network, config=config) as port:
            with ServeClient("127.0.0.1", port) as client:
                name = network.commodities[0].name
                ids = [client.send("demand", commodity=name, rate=2.0)
                       for __ in range(12)]
                for __ in ids:
                    doc = client.read()
                    if not doc.get("ok") and doc["error"]["code"] == 429:
                        overloaded += 1
        assert overloaded >= 1  # the queue bound talked back

    def test_optimizer_crash_is_503_not_a_hang(self):
        network = small_network()
        session = ServeSession(
            network, refine_iterations=2, warmup_iterations=20
        )

        calls = {"n": 0}
        real = session.process_batch

        def explode(events):
            calls["n"] += 1
            if calls["n"] >= 2:
                raise RuntimeError("boom")
            return real(events)

        session.process_batch = explode
        name = network.commodities[0].name
        with ServerThread(
            network, config=quick_config(), session=session
        ) as port:
            with ServeClient("127.0.0.1", port) as client:
                assert client.demand(name, 2.0)["ok"] is True  # batch 1 lands
                crashed = client.demand(name, 3.0)  # batch 2 crashes
                assert crashed["ok"] is False
                assert crashed["error"]["code"] == 503
                assert "boom" in crashed["error"]["message"]
                # subsequent events answer 503 immediately, no hang
                after = client.demand(name, 4.0)
                assert after["ok"] is False
                assert after["error"]["code"] == 503
                # reads keep serving the last good epoch
                stats = client.stats()
                assert stats["ok"] is True
                assert stats["healthy"] is False
                assert stats["epoch"] >= 1

    def test_shutdown_drains_cleanly(self):
        network = small_network()
        name = network.commodities[0].name
        thread = ServerThread(network, config=quick_config())
        port = thread.start()
        with ServeClient("127.0.0.1", port) as client:
            ids = [client.send("demand", commodity=name, rate=2.0)
                   for __ in range(5)]
            client.send("shutdown")
            answered = [client.read() for __ in ids]
            ack = client.read()
        # every accepted event was answered before the socket closed
        assert all(doc["op"] == "demand" for doc in answered)
        assert all(doc["ok"] for doc in answered)
        assert ack["op"] == "shutdown" and ack["ok"] is True
        assert ack["stats"]["events_accepted"] >= 5
        # the listener is gone
        thread._thread.join(timeout=10)
        assert not thread._thread.is_alive()
        with pytest.raises(OSError):
            socket.create_connection(("127.0.0.1", port), timeout=0.5).close()

    def test_draining_server_rejects_new_events(self):
        network = small_network()
        name = network.commodities[0].name
        thread = ServerThread(network, config=quick_config(batch_window=0.2))
        port = thread.start()
        try:
            with ServeClient("127.0.0.1", port) as client:
                client.send("demand", commodity=name, rate=2.0)
                # wait until the daemon has actually read the request, so
                # the drain below races the *optimizer*, not the socket
                assert thread.server is not None
                deadline = time.monotonic() + 30
                while thread.server.stats["requests_total"] < 1:
                    assert time.monotonic() < deadline
                    time.sleep(0.001)
                drainer = threading.Thread(target=thread.stop)
                drainer.start()
                doc = client.read()  # the in-flight event still answers
                assert doc["ok"] is True
                drainer.join(timeout=30)
        finally:
            thread.stop()


# ------------------------------------------------- orchestrator epoch API


class TestOrchestratorEpoch:
    def test_current_epoch_accessor(self):
        net = figure1_network()
        events = [DemandChange(at_iteration=40, commodity="S1", new_rate=22.0)]
        orch = OnlineOrchestrator(net, events)
        assert orch.current_epoch() == 0  # nothing ran yet
        orch.run(120)
        assert orch.current_epoch() >= 1  # the event bumped the live epoch


# ----------------------------------------------------------- serve session


class TestSessionPolicies:
    def test_rejects_bad_knobs(self):
        network = small_network()
        with pytest.raises(ServeError):
            ServeSession(network, refine_iterations=0)
        with pytest.raises(ServeError):
            ServeSession(network, warmup_iterations=0)

    def test_closed_session_refuses_batches(self):
        network = small_network()
        session = ServeSession(
            network, refine_iterations=2, warmup_iterations=20
        )
        session.warmup()
        session.close()
        with pytest.raises(ServeError):
            session.process_batch(
                [DemandChange(at_iteration=0, commodity="x", new_rate=1.0)]
            )

    def test_every_published_epoch_is_audited(self):
        network = small_network()
        session = ServeSession(
            network, refine_iterations=2, warmup_iterations=20
        )
        snapshot = session.warmup()
        assert snapshot.validation is not None and snapshot.validation.passed
        events = churn_trace(network, ChurnSpec(num_events=12), seed=9)
        for start in range(0, len(events), 4):
            __, snap = session.process_batch(events[start:start + 4])
            assert snap.validation is not None and snap.validation.passed
        session.close()


class TestRefineCapacity:
    """The refine step must never publish a node past its capacity."""

    def test_session_stream_publishes_every_batch(self):
        # the repo benchmark's serve-sessions stream: its inputs module is
        # imported read-only for the network and the request stream
        import sys
        from pathlib import Path

        from repro.obs import Instrumentation

        perfbench = str(Path(__file__).resolve().parents[1] / "perfbench")
        sys.path.insert(0, perfbench)
        try:
            import inputs
        finally:
            sys.path.remove(perfbench)

        network = inputs.serve_network()
        stream = inputs.churn_stream(
            network, inputs.SESSION_WEIGHTS, 400, 36
        )
        inst = Instrumentation()
        session = ServeSession(network, instrumentation=inst)
        session.warmup()
        sizes = np.random.default_rng(0)
        start = 0
        while start < len(stream.events):
            size = int(sizes.integers(1, 5))
            # the refine used to carry a node to 1.098x its capacity here,
            # failing the audit of the batch holding event 392
            __, snap = session.process_batch(stream.events[start:start + size])
            assert snap.validation is not None and snap.validation.passed
            start += size
        assert inst.registry.counter("serve.reshed").value == 1
        session.close()
