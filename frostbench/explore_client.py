"""The keep-alive HTTP clients of the explore-serve workload.

Run as ``python3 -m frostbench.explore_client PORT`` by the serving
repetition, in a process of its own so that the clients do not compete
with the server for its interpreter lock.  Reads the clients' request
plans (one JSON line: a list of plans), opens one keep-alive connection
per client, answers ``ready``, waits for a ``go`` line, and then lets
the clients take turns: one request is in flight at a time, and each
client sends its next request only after its previous response (and the
other clients' turns) completed.  Prints one JSON line: per client, a
``[latency_ms, status, sha256 of the body]`` row per request.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import sys
import time


def _send(connection: http.client.HTTPConnection, request: dict) -> list:
    body = None
    headers = {}
    if request["body"] is not None:
        body = json.dumps(request["body"]).encode("utf-8")
        headers["Content-Type"] = "application/json"
    started = time.perf_counter()
    connection.request(request["method"], request["url"], body, headers)
    response = connection.getresponse()
    payload = response.read()
    latency_ms = (time.perf_counter() - started) * 1000.0
    return [latency_ms, response.status, hashlib.sha256(payload).hexdigest()]


def main() -> None:
    port = int(sys.argv[1])
    plans = json.loads(sys.stdin.readline())
    connections = [
        http.client.HTTPConnection("127.0.0.1", port, timeout=120) for _ in plans
    ]
    try:
        for connection in connections:
            connection.connect()
        print("ready", flush=True)
        sys.stdin.readline()
        results = [[] for _ in plans]
        for turn in range(max(map(len, plans))):
            for client, plan in enumerate(plans):
                if turn < len(plan):
                    results[client].append(_send(connections[client], plan[turn]))
    finally:
        for connection in connections:
            connection.close()
    print(json.dumps(results), flush=True)


if __name__ == "__main__":
    main()
