"""Network search: serving one index to multiple tenants over TCP.

This walkthrough stands up the full network serving tier from
``repro.net``: a :class:`NetServer` speaking the length-prefixed JSON
protocol (docs/wire_protocol.md) in front of a :class:`QueryService`,
with a two-tenant roster — "analytics" has a generous quota, "trial"
a tight one.  Both tenants fire the same burst of queries; the trial
tenant gets rate-limited with a typed, retryable error carrying a
``retry_after_ms`` hint, while analytics sails through untouched.
That per-tenant isolation is the point of admission control: one
noisy tenant sheds *its own* traffic, never its neighbours'.

A last leg serves a time-sliced :class:`TemporalIndex` instead: the
same places arrive over the wire as timestamped document records
(``{"id", "x", "y", "terms", "ts"}``), and a recency query ranks the
newest of them first.

Run with:  python examples/network_search.py
"""

from repro import (
    UNIT_SQUARE,
    QueryService,
    ServiceConfig,
    SpatialDocument,
    SpatialKeywordDatabase,
    TopKQuery,
)
from repro.net import Client, NetServer, NetServerConfig, QuotaExceeded, TenantDirectory
from repro.temporal import (
    RecencySpec,
    TemporalConfig,
    TemporalDocument,
    TemporalIndex,
    TemporalQuery,
)

PLACES = [
    ("Dragon Wok", 0.32, 0.28, "spicy sichuan chinese restaurant"),
    ("Seoul Garden", 0.68, 0.41, "korean barbecue restaurant spicy"),
    ("Bamboo House", 0.71, 0.12, "chinese dumpling restaurant"),
    ("Chili Empire", 0.61, 0.72, "spicy hotpot restaurant late night"),
    ("Kimchi Corner", 0.22, 0.79, "korean spicy stew restaurant"),
    ("Noodle Bar", 0.41, 0.44, "noodle soup spicy bar"),
    ("Golden Lotus", 0.88, 0.62, "chinese dim sum restaurant tea"),
    ("Night Market", 0.55, 0.93, "street food market snacks"),
    ("Espresso Lane", 0.15, 0.35, "coffee cafe pastry quiet"),
    ("Harbor Grill", 0.92, 0.18, "seafood grill bar waterfront"),
]

# Two tenants, two very different deals.  "trial" gets 2 requests/sec
# of sustained rate with a burst allowance of 2 — the third rapid-fire
# request will be shed.
TENANTS = TenantDirectory.from_dict({
    "tenants": [
        {"name": "analytics", "api_key": "analytics-key", "rate": 1000.0,
         "burst": 100},
        {"name": "trial", "api_key": "trial-key", "rate": 2.0, "burst": 2},
    ]
})


def main() -> None:
    # ------------------------------------------------------------------
    # 1. The same city database as examples/concurrent_search.py,
    #    wrapped in a QueryService and put on a real TCP socket.
    # ------------------------------------------------------------------
    db = SpatialKeywordDatabase()
    for doc_id, (name, x, y, text) in enumerate(PLACES):
        db.add(doc_id, x, y, text)
    print(f"indexed {len(db)} places")

    config = ServiceConfig(max_pending=16, cache_capacity=64, metrics_seed=7)
    with QueryService(db, config) as service:
        server = NetServer(
            service,
            tenants=TENANTS,
            config=NetServerConfig(host="127.0.0.1", port=0),  # ephemeral
        ).start()
        print(f"serving on {server.host}:{server.port}")
        try:
            query = TopKQuery(0.45, 0.45, ("spicy", "restaurant"), k=3)

            # ----------------------------------------------------------
            # 2. Both tenants fire 6 rapid-fire queries.  No client-side
            #    retries yet, so quota sheds surface as exceptions.
            # ----------------------------------------------------------
            for tenant, api_key in (("analytics", "analytics-key"),
                                    ("trial", "trial-key")):
                served = shed = 0
                hints = []
                with Client(server.host, server.port, key=api_key,
                            retries=0) as client:
                    for _ in range(6):
                        try:
                            results = client.search(query)
                            served += 1
                        except QuotaExceeded as exc:
                            shed += 1
                            hints.append(exc.retry_after_ms)
                print(f"{tenant:>9}: {served} served, {shed} rate-limited"
                      + (f" (retry_after ~{hints[0]:.0f}ms)" if hints else ""))

            # ----------------------------------------------------------
            # 3. The same trial burst *with* retries: the client reads
            #    the retry_after hint, backs off past the quota window,
            #    and every request eventually lands — slower, not wrong.
            # ----------------------------------------------------------
            with Client(server.host, server.port, key="trial-key",
                        retries=4) as client:
                answers = [client.search(query) for _ in range(4)]
            names = [PLACES[r.doc_id][0] for r in answers[0]]
            print(f"trial with retries: 4/4 served after backoff "
                  f"({client.attempts} attempts); top hits: {names}")
            assert all(a == answers[0] for a in answers), (
                "rate limiting must delay answers, never change them"
            )

            # ----------------------------------------------------------
            # 4. Per-tenant accounting, straight from the server.
            # ----------------------------------------------------------
            print("per-tenant admission state:")
            for snap in server.tenants.snapshot():
                print(f"  {snap['tenant']:>9}: admitted={snap['admitted']}"
                      f" rejected_quota={snap['rejected_quota']}"
                      f" rate={snap['rate']}")
        finally:
            server.close()
    print("server closed cleanly")
    temporal_leg()


def temporal_leg() -> None:
    # ------------------------------------------------------------------
    # 5. A temporal store fed over the wire: a document record carrying
    #    "ts" becomes a TemporalDocument server-side.  One place opens
    #    every ten minutes; the query halves a place's score for every
    #    half hour of age at minute 100.
    # ------------------------------------------------------------------
    index = TemporalIndex(UNIT_SQUARE, TemporalConfig(slice_width=3600.0))
    with QueryService(index) as service, NetServer(service) as server, \
            Client(server.host, server.port) as client:
        for doc_id, (name, x, y, text) in enumerate(PLACES):
            doc = SpatialDocument(doc_id, x, y, dict.fromkeys(text.split(), 1.0))
            client.insert(TemporalDocument(doc, 600.0 * doc_id))
        query = TemporalQuery(
            TopKQuery(0.45, 0.45, ("spicy", "restaurant"), k=3),
            recency=RecencySpec(half_life=1800.0, origin=6000.0),
        )
        hits = [(PLACES[r.doc_id][0], round(r.score, 3))
                for r in client.search(query)]
    print(f"temporal store fed over the wire: {len(PLACES)} timestamped "
          f"places; recency-weighted hits: {hits}")


if __name__ == "__main__":
    main()
