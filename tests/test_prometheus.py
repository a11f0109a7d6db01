"""The Prometheus text exposition of the metrics registry.

Rendered output is consumed by scrapers that are strict about format
(HELP/TYPE lines, label quoting and escaping, trailing newline), so the
core test is a golden one: a seeded registry must render
byte-identically.  The per-tenant labels of the network serving tier
ride through the same renderer, so label escaping (quotes, backslashes,
newlines in tenant names) is hardened here too.
"""

from repro.service.metrics import MetricsRegistry, escape_label_value

GOLDEN = """\
# HELP repro_cache_hits cache.hits
# TYPE repro_cache_hits counter
repro_cache_hits 3
# HELP repro_queries_completed queries served to completion
# TYPE repro_queries_completed counter
repro_queries_completed 7
# HELP repro_queue_depth queue.depth
# TYPE repro_queue_depth gauge
repro_queue_depth 2.5
# HELP repro_latency_ms latency_ms
# TYPE repro_latency_ms summary
repro_latency_ms{quantile="0.5"} 3
repro_latency_ms{quantile="0.95"} 5
repro_latency_ms{quantile="0.99"} 5
repro_latency_ms_sum 15
repro_latency_ms_count 5
"""

GOLDEN_LABELLED = """\
# HELP repro_net_requests requests received over the wire
# TYPE repro_net_requests counter
repro_net_requests{tenant="acme"} 4
repro_net_requests{tenant="trial"} 1
# HELP repro_net_request_ms net.request_ms
# TYPE repro_net_request_ms summary
repro_net_request_ms{tenant="acme",quantile="0.5"} 2
repro_net_request_ms{tenant="acme",quantile="0.95"} 2
repro_net_request_ms{tenant="acme",quantile="0.99"} 2
repro_net_request_ms_sum{tenant="acme"} 2
repro_net_request_ms_count{tenant="acme"} 1
"""


def seeded_registry() -> MetricsRegistry:
    registry = MetricsRegistry(seed=0)
    registry.counter(
        "queries.completed", help_text="queries served to completion"
    ).inc(7)
    registry.counter("cache.hits").inc(3)
    registry.gauge("queue.depth").set(2.5)
    latency = registry.histogram("latency_ms")
    for value in (1.0, 2.0, 3.0, 4.0, 5.0):
        latency.observe(value)
    return registry


class TestRenderPrometheus:
    def test_golden_exposition(self):
        assert seeded_registry().render_prometheus() == GOLDEN

    def test_empty_registry_renders_empty_page(self):
        assert MetricsRegistry().render_prometheus() == "\n"

    def test_prefix_and_name_sanitisation(self):
        registry = MetricsRegistry()
        registry.counter("shard.0.attempt-failures").inc()
        text = registry.render_prometheus(prefix="svc")
        assert "svc_shard_0_attempt_failures 1" in text
        assert "# TYPE svc_shard_0_attempt_failures counter" in text

    def test_stable_across_renders(self):
        registry = seeded_registry()
        assert registry.render_prometheus() == registry.render_prometheus()

    def test_summary_sum_count_relation(self):
        registry = MetricsRegistry(seed=1)
        h = registry.histogram("queue_wait_ms")
        observations = [0.5, 1.5, 2.25]
        for value in observations:
            h.observe(value)
        text = registry.render_prometheus()
        assert f"repro_queue_wait_ms_sum {sum(observations)!r}" in text
        assert "repro_queue_wait_ms_count 3" in text


class TestLabelledMetrics:
    def test_golden_labelled_exposition(self):
        registry = MetricsRegistry(seed=0)
        registry.counter(
            "net.requests",
            labels={"tenant": "acme"},
            help_text="requests received over the wire",
        ).inc(4)
        registry.counter("net.requests", labels={"tenant": "trial"}).inc()
        registry.histogram(
            "net.request_ms", labels={"tenant": "acme"}
        ).observe(2.0)
        assert registry.render_prometheus() == GOLDEN_LABELLED

    def test_family_header_emitted_once(self):
        registry = MetricsRegistry()
        for tenant in ("a", "b", "c"):
            registry.counter("net.requests", labels={"tenant": tenant}).inc()
        text = registry.render_prometheus()
        assert text.count("# TYPE repro_net_requests counter") == 1
        assert text.count("# HELP repro_net_requests") == 1

    def test_same_labels_same_instance(self):
        registry = MetricsRegistry()
        a = registry.counter("net.requests", labels={"tenant": "x"})
        b = registry.counter("net.requests", labels={"tenant": "x"})
        assert a is b
        a.inc(2)
        assert b.value == 2

    def test_label_value_escaping(self):
        registry = MetricsRegistry()
        hostile = 'evil"name\\with\nnewline'
        registry.counter("net.requests", labels={"tenant": hostile}).inc()
        text = registry.render_prometheus()
        line = next(
            li for li in text.splitlines()
            if li.startswith("repro_net_requests{")
        )
        assert line == (
            'repro_net_requests{tenant="evil\\"name\\\\with\\nnewline"} 1'
        )
        # The raw control characters never appear inside the exposition.
        assert "\n" not in line

    def test_escape_label_value(self):
        assert escape_label_value('a"b') == 'a\\"b'
        assert escape_label_value("a\\b") == "a\\\\b"
        assert escape_label_value("a\nb") == "a\\nb"
        assert escape_label_value("plain") == "plain"

    def test_label_keys_sorted_and_sanitised(self):
        registry = MetricsRegistry()
        registry.counter(
            "net.requests", labels={"zeta": "1", "alpha-key": "2"}
        ).inc()
        text = registry.render_prometheus()
        assert 'repro_net_requests{alpha_key="2",zeta="1"} 1' in text

    def test_describe_sets_help(self):
        registry = MetricsRegistry()
        registry.counter("queries.shed").inc()
        registry.describe("queries.shed", "queries refused by admission")
        text = registry.render_prometheus()
        assert "# HELP repro_queries_shed queries refused by admission" in text

    def test_as_dict_uses_flat_labelled_keys(self):
        registry = MetricsRegistry()
        registry.counter("net.requests", labels={"tenant": "acme"}).inc(3)
        counters = registry.as_dict()["counters"]
        assert counters['net.requests{tenant="acme"}'] == 3
