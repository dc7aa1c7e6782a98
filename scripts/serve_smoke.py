#!/usr/bin/env python3
"""Smoke-drive a running `pmt serve` daemon (CI's serve-smoke job).

Asserts the service's three headline contracts, using only the public
wire API and `/metrics`:

1. **CLI/daemon byte-identity** — POSTing the request that
   `pmt explore --emit-request` captured returns *exactly* the bytes
   `pmt explore --out` wrote (``--expect``).
2. **Warm-repeat caching** — repeating the identical request N ways
   concurrently performs **zero** new predictions: every repeat is a
   response-cache hit.
3. **Coalescing** — N concurrent *cold* identical requests (a variant
   the cache has never seen) are computed **once**: exactly one leader
   predicts the space, everyone else is a coalesced follower, a cache
   hit (if they arrived after completion), or a structured 429.
   `cache_hits + coalesced + busy + 1 == N` must hold exactly.
4. **Micro-batching** (with ``--solo-url`` and ``--predict-request``) —
   N concurrent *distinct* predicts (DVFS frequency ladder) ride shared
   `BatchPredictor` flights (``batched_requests`` grows), and every
   response is byte-identical to replaying the same request against a
   ``--batch-window-ms 0`` control daemon. The predicts meet at a
   rendezvous rather than racing the clock: every connection sends its
   headers first and its body after a pause, so with fewer workers than
   callers the first flight's leader always sees queued work and holds
   its window open for company.

After all phases the extended request partition must hold exactly on
the batched daemon:
``hits + coalesced + batched + rejected + failed + leaders == N``.

Usage:
  serve_smoke.py --url http://127.0.0.1:7071 \
      --solo-url http://127.0.0.1:7072 \
      --request explore-request.json --expect cli-explore.json \
      --predict-request predict-request.json
"""

import argparse
import concurrent.futures
import json
import socket
import sys
import time
import urllib.error
import urllib.parse
import urllib.request


def http(url, body=None):
    """One exchange → (status, bytes, headers)."""
    req = urllib.request.Request(url, data=body, method="POST" if body else "GET")
    try:
        with urllib.request.urlopen(req, timeout=300) as resp:
            return resp.status, resp.read(), dict(resp.headers)
    except urllib.error.HTTPError as e:
        return e.code, e.read(), dict(e.headers)


def rendezvous_predicts(base, bodies, pause_s=0.15):
    """POST every body to /v1/predict at once → [(status, bytes)].

    Every connection sends its request headers first; after a pause (far
    below the daemon's 2 s read deadline) every body follows. The workers
    park reading bodies while the acceptor queues the remaining
    connections, so when the bodies land the first leader sees queued
    work and keeps its collection window open until the rest board.
    """
    url = urllib.parse.urlsplit(base)
    conns = []
    for body in bodies:
        conn = socket.create_connection((url.hostname, url.port), timeout=300)
        conn.sendall(
            f"POST /v1/predict HTTP/1.1\r\nhost: {url.netloc}\r\n"
            f"content-length: {len(body)}\r\n\r\n".encode()
        )
        conns.append(conn)
    time.sleep(pause_s)
    for conn, body in zip(conns, bodies):
        conn.sendall(body)
    replies = []
    for conn in conns:
        raw = b""
        while chunk := conn.recv(65536):
            raw += chunk
        conn.close()
        head, _, payload = raw.partition(b"\r\n\r\n")
        replies.append((int(head.split(b" ", 2)[1]), payload))
    return replies


def metrics(base):
    status, body, _ = http(base + "/metrics")
    assert status == 200, f"/metrics: {status} {body!r}"
    return json.loads(body)


def wait_healthy(base, seconds=60):
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline:
        try:
            status, body, _ = http(base + "/healthz")
            if status == 200 and json.loads(body)["status"] == "ok":
                return
        except OSError:
            pass
        time.sleep(0.2)
    sys.exit(f"daemon at {base} never became healthy")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--url", required=True, help="daemon base URL")
    ap.add_argument("--request", required=True, help="ExploreRequest JSON (from --emit-request)")
    ap.add_argument("--expect", required=True, help="ExploreResponse the CLI wrote (from --out)")
    ap.add_argument("--solo-url", help="control daemon with --batch-window-ms 0 (phase 4)")
    ap.add_argument("--predict-request",
                    help="PredictRequest JSON from `pmt predict --emit-request` (phase 4)")
    ap.add_argument("--concurrency", type=int, default=8)
    args = ap.parse_args()
    base = args.url.rstrip("/")
    n = args.concurrency
    served = 0  # requests the batched daemon answered (partition N)

    wait_healthy(base)
    with open(args.request, "rb") as f:
        request = f.read()
    with open(args.expect, "rb") as f:
        expected = f.read()

    # 1. Byte-identity with the CLI.
    status, body, headers = http(base + "/v1/explore", request)
    assert status == 200, f"explore: {status} {body!r}"
    assert body == expected, (
        "served ExploreResponse differs from the CLI's --out bytes "
        f"(served {len(body)}B vs CLI {len(expected)}B)"
    )
    evaluated = json.loads(body)["summary"]["evaluated"]
    served += 1
    print(f"byte-identity: served /v1/explore == CLI --out ({len(body)} bytes, "
          f"{evaluated} points evaluated)")

    # 2. Warm repeats predict nothing.
    before = metrics(base)
    with concurrent.futures.ThreadPoolExecutor(n) as pool:
        replies = list(pool.map(lambda _: http(base + "/v1/explore", request), range(n)))
    after = metrics(base)
    for status, body, _ in replies:
        assert status == 200, f"warm repeat: {status} {body!r}"
        assert body == expected, "warm repeat returned different bytes"
    new_points = after["points_predicted"] - before["points_predicted"]
    new_hits = after["response_cache_hits"] - before["response_cache_hits"]
    assert new_points == 0, f"warm repeats predicted {new_points} new points"
    assert new_hits == n, f"expected {n} cache hits, saw {new_hits}"
    served += n
    print(f"warm cache: {n} concurrent repeats → 0 new predictions, {new_hits} cache hits")

    # 3. Cold identical requests are computed exactly once.
    variant = json.loads(request)
    variant["objective"] = "edp" if variant.get("objective") != "edp" else "cpi"
    cold = json.dumps(variant, separators=(",", ":")).encode()
    before = metrics(base)
    with concurrent.futures.ThreadPoolExecutor(n) as pool:
        replies = list(pool.map(lambda _: http(base + "/v1/explore", cold), range(n)))
    after = metrics(base)

    ok = [r for r in replies if r[0] == 200]
    busy = [r for r in replies if r[0] == 429]
    assert len(ok) + len(busy) == n, f"unexpected statuses: {[r[0] for r in replies]}"
    for status, _, headers in busy:
        assert "Retry-After" in headers, "429 without a Retry-After header"
    bodies = {body for _, body, _ in ok}
    assert len(bodies) == 1, "coalesced requests returned differing bytes"

    new_points = after["points_predicted"] - before["points_predicted"]
    assert new_points == evaluated, (
        f"identical concurrent requests were computed more than once "
        f"({new_points} new points for a {evaluated}-point job)"
    )
    hits = after["response_cache_hits"] - before["response_cache_hits"]
    coalesced = after["coalesced_requests"] - before["coalesced_requests"]
    rejected = after["rejected_busy"] - before["rejected_busy"]
    assert hits + coalesced + rejected + 1 == n, (
        f"request accounting broke: {hits} hits + {coalesced} coalesced + "
        f"{rejected} busy + 1 leader != {n}"
    )
    assert rejected == len(busy)
    served += n
    print(f"coalescing: {n} cold identical requests → 1 leader, "
          f"{coalesced} coalesced, {hits} cache hits, {rejected} busy")

    # 4. Distinct concurrent predicts share micro-batch flights, and the
    #    flights change no one's bytes: every response must equal a solo
    #    replay against the --batch-window-ms 0 control daemon.
    if args.solo_url and args.predict_request:
        solo = args.solo_url.rstrip("/")
        wait_healthy(solo)
        with open(args.predict_request) as f:
            template = json.load(f)
        variants = []
        for i in range(n):
            template["machine"]["config"]["core"]["frequency_ghz"] = 1.0 + 0.001 * i
            variants.append(json.dumps(template, separators=(",", ":")).encode())

        before = metrics(base)
        assert before["worker_threads"] < n, (
            f"the rendezvous needs fewer workers than callers: "
            f"{before['worker_threads']} workers for {n} predicts"
        )
        replies = rendezvous_predicts(base, variants)
        after = metrics(base)
        for status, body in replies:
            assert status == 200, f"batched predict: {status} {body!r}"
        assert len({body for _, body in replies}) == n, \
            "distinct design points returned duplicated response bytes"
        served += n

        batched = after["batched_requests"] - before["batched_requests"]
        flights = after["batch_flights"] - before["batch_flights"]
        leaders = after["flight_leaders"] - before["flight_leaders"]
        failed = after["failed_requests"] - before["failed_requests"]
        assert failed == 0, f"{failed} predicts failed"
        assert batched > 0, (
            f"no request rode a shared flight ({flights} flights for {n} "
            f"concurrent distinct predicts)"
        )
        assert batched + leaders == n, (
            f"predict accounting broke: {batched} batched + {leaders} leaders != {n}"
        )

        for variant, (_, body) in zip(variants, replies):
            status, solo_body, _ = http(solo + "/v1/predict", variant)
            assert status == 200, f"solo replay: {status} {solo_body!r}"
            assert solo_body == body, (
                "a batched response differs from its solo replay — shared "
                "flights changed someone's bytes"
            )
        print(f"micro-batching: {n} concurrent distinct predicts → {flights} flight(s), "
              f"{batched} answered from a shared flight; all bytes == solo replays")

    # Extended partition: every request the daemon ever answered is
    # exactly one of hit / coalesced / batched / rejected / failed /
    # flight leader.
    after = metrics(base)
    terms = {k: after[k] for k in (
        "response_cache_hits", "coalesced_requests", "batched_requests",
        "rejected_busy", "failed_requests", "flight_leaders")}
    total = sum(terms.values())
    assert total == served, (
        f"extended request partition broke: {terms} sums to {total}, "
        f"but {served} requests were served"
    )
    print(f"partition: {terms} == {served} requests served")

    print("serve smoke OK:", json.dumps(after))


if __name__ == "__main__":
    main()
