"""Answer verification against in-process references.

Served answers must equal, byte for byte after JSON rendering, the lossless
``encode_answer`` of a reference service run in the benchmark process:

* read workloads: ``QueryService.from_index_file`` on the served index file
  (the shard count does not change answers, so it also covers K=2);
* ``update_mix``: ``QueryService.build`` on the final graph — the served
  graph plus every accepted edge — because after the first update the
  server re-solves the whole diagonal from per-source streams, so its
  answers follow the streamed lineage, not the ``CloudWalker`` index.

JSON renders floats with ``repr``, which round-trips IEEE doubles, so equal
renderings mean bitwise-equal answers.
"""

from __future__ import annotations

import json
import math
from typing import Any, List, Sequence, Tuple

Answered = Tuple[str, Any]      # (wire query line, decoded served answer)


def reference_answers(service: Any, lines: Sequence[str]) -> List[Any]:
    """Encoded reference answers for ``lines`` from an in-process service."""
    from repro.service import parse_query
    from repro.service.http import encode_answer

    queries = [parse_query(line) for line in lines]
    encoded: List[Any] = []
    for start in range(0, len(queries), 64):
        chunk = queries[start:start + 64]
        answers = service.run_batch(chunk)
        encoded.extend(encode_answer(query, answer)
                       for query, answer in zip(chunk, answers))
    return encoded


def mismatches(answered: Sequence[Answered], expected: Sequence[Any]) -> List[str]:
    """Queries whose served answer differs from the reference."""
    return [line for (line, got), want in zip(answered, expected)
            if json.dumps(got) != json.dumps(want)]


def corrupt(answer: Any) -> Any:
    """The same answer with one float moved by one unit in the last place."""
    if isinstance(answer, float):
        return math.nextafter(answer, math.inf)
    answer = json.loads(json.dumps(answer))
    if answer and isinstance(answer[0], list):
        answer[0][1] = math.nextafter(answer[0][1], math.inf)
    else:
        answer[0] = math.nextafter(answer[0], math.inf)
    return answer


def self_test(answered: Sequence[Answered], expected: Sequence[Any]) -> bool:
    """Corrupt one served answer and confirm the check reports it."""
    if not answered:
        return False
    line, answer = answered[0]
    tampered = [(line, corrupt(answer))] + list(answered[1:])
    return mismatches(tampered, expected) == [line]


def versions_monotonic(per_connection: Sequence[Sequence[int]]) -> bool:
    """``index_version`` never decreases along any one connection."""
    return all(later >= earlier
               for versions in per_connection
               for earlier, later in zip(versions, versions[1:]))
