"""Restaurant finder: the paper's motivating location-based scenario.

Generates a city of points of interest (restaurants clustered into
districts, annotated with cuisine keywords), then answers the kinds of
queries the paper's introduction motivates:

* "spicy chinese restaurant" with a strong preference -> AND semantics;
* the same without a strong preference -> OR semantics ("non-spicy
  Chinese restaurants can also be recommended if they are close");
* the trade-off between distance and textual match -> sweeping alpha.

Run with:  python examples/restaurant_finder.py
"""

from __future__ import annotations

import random

from repro import I3Index, Ranker, Semantics, SpatialDocument, TopKQuery, UNIT_SQUARE

CUISINES = ["chinese", "korean", "italian", "thai", "mexican", "japanese"]
TRAITS = ["spicy", "cheap", "fancy", "vegan", "halal", "late"]
DISTRICTS = [(0.25, 0.25), (0.75, 0.3), (0.5, 0.8), (0.15, 0.7)]


def build_city(num_pois: int, seed: int = 7) -> list[SpatialDocument]:
    """Restaurants clustered around district centres."""
    rng = random.Random(seed)
    pois = []
    for poi_id in range(num_pois):
        cx, cy = rng.choice(DISTRICTS)
        x = min(max(rng.gauss(cx, 0.06), 0.0), 1.0)
        y = min(max(rng.gauss(cy, 0.06), 0.0), 1.0)
        terms = {"restaurant": rng.uniform(0.3, 1.0)}
        terms[rng.choice(CUISINES)] = rng.uniform(0.4, 1.0)
        for trait in rng.sample(TRAITS, rng.randint(0, 2)):
            terms[trait] = rng.uniform(0.2, 0.9)
        pois.append(SpatialDocument(poi_id, x, y, terms))
    return pois


def show(title: str, hits, pois) -> None:
    print(f"\n{title}")
    if not hits:
        print("  (no matching restaurant)")
    for hit in hits:
        poi = pois[hit.doc_id]
        tags = ", ".join(sorted(poi.terms))
        print(f"  #{hit.doc_id:<4} score={hit.score:.4f}  ({poi.x:.2f}, {poi.y:.2f})  [{tags}]")


def main() -> None:
    pois = build_city(3000)
    index = I3Index(UNIT_SQUARE)
    for poi in pois:
        index.insert_document(poi)
    print(f"indexed {len(pois)} restaurants; "
          f"index size {index.size_bytes / 1024:.0f} KB "
          f"(data/head/lookup = {index.size_breakdown()})")

    user = (0.3, 0.3)  # standing in the south-west district
    ranker = Ranker(UNIT_SQUARE, alpha=0.5)

    # Strong preference: all three keywords required.
    strict = TopKQuery(*user, ("spicy", "chinese", "restaurant"), k=5,
                       semantics=Semantics.AND)
    show("AND: spicy chinese restaurants near (0.3, 0.3)",
         index.query(strict, ranker), pois)

    # Relaxed: nearby Chinese places rank too, spicy is just a bonus.
    relaxed = strict.with_semantics(Semantics.OR)
    show("OR: same query, partial matches allowed",
         index.query(relaxed, ranker), pois)

    # The alpha dial: distance-dominated vs text-dominated ranking.
    for alpha in (0.9, 0.1):
        hits = index.query(relaxed, ranker.with_alpha(alpha))
        flavour = "distance-driven" if alpha > 0.5 else "text-driven"
        show(f"OR with alpha={alpha} ({flavour})", hits, pois)

    # A restaurant changes hands: update moves its tuples.
    old = pois[42]
    new = SpatialDocument(
        42, old.x, old.y,
        {"restaurant": 0.9, "chinese": 0.95, "spicy": 0.95},
    )
    index.update_document(old, new)
    pois[42] = new
    show("AND again after #42 became a spicy chinese place",
         index.query(strict, ranker), pois)

    # engine_processor() is the vector cell model every query above ran on.
    trace = index.engine_processor().last_trace
    print(f"\nlast query examined {trace.candidates_popped} cells, "
          f"pruned {trace.cells_pruned}, scored {trace.docs_scored} documents")


if __name__ == "__main__":
    main()
