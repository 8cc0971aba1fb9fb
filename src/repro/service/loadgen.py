"""Concurrent client traffic for the service smoke check.

:func:`zoo_requests` builds a deterministic pool of embedded
scenario-zoo request bodies, and :func:`_drive_clients` posts such a
pool from N concurrent blocking client threads, one sample per request.
``python -m repro.service smoke`` drives its fixed bursts through them.
Throughput and latency are measured by the repository benchmark
(``perfbench/``), not here.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List

from repro.service.client import ServiceClient, ServiceError


def zoo_requests(count: int, seed_base: int = 0,
                 use_cache: bool = True) -> List[Dict[str, Any]]:
    """A deterministic pool of *count* scenario-zoo request bodies.

    Every body embeds a full CDFG + hardware-spec document built from a
    distinct ``(family, seed)`` scenario, so its decode, hash and search
    costs all land on the server.  Every third request repeats an earlier
    body verbatim.  ``use_cache=False`` stamps every body with
    ``"cache": false``, so each one is searched even when an earlier run
    stored its answer.
    """
    from repro.bench.zoo import FAMILIES, Scenario
    from repro.io.json_io import cdfg_to_dict, spec_to_dict
    names = sorted(FAMILIES)
    pool: List[Dict[str, Any]] = []
    variant = 0
    while len(pool) < count:
        if variant % 3 == 2 and pool:
            pool.append(dict(pool[(variant // 3) % len(pool)]))
            variant += 1
            continue
        family = names[variant % len(names)]
        scenario = Scenario.make(
            family, seed=seed_base + variant // len(names))
        body: Dict[str, Any] = {
            "cdfg": cdfg_to_dict(scenario.build()),
            "spec": spec_to_dict(scenario.spec()),
            "seed": seed_base + variant,
            "restarts": 1,
            "improve": {"max_trials": 2, "moves_per_trial": 120},
        }
        if not use_cache:
            body["cache"] = False
        pool.append(body)
        variant += 1
    return pool[:count]


def _drive_clients(url: str, pool: List[Dict[str, Any]],
                   clients: int) -> List[Dict[str, Any]]:
    """Post *pool* from *clients* concurrent blocking clients.

    Client ``i`` posts ``pool[i::clients]`` in order.  One sample per
    answered request, ``{"ok", "status"}`` plus ``"error"`` when the
    request failed; a request whose client thread died leaves no sample,
    so ``len(pool) - len(samples)`` counts the drops.
    """
    lock = threading.Lock()
    samples: List[Dict[str, Any]] = []

    def drive(index: int) -> None:
        for body in pool[index::clients]:
            sample: Dict[str, Any]
            try:
                status = ServiceClient(url).allocate(body).get("status")
                sample = {"ok": status == "done", "status": status}
            except (ServiceError, OSError) as exc:
                sample = {"ok": False, "status": "error", "error": str(exc)}
            with lock:
                samples.append(sample)

    threads = [threading.Thread(target=drive, args=(index,),
                                name=f"smoke-client-{index}")
               for index in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return samples
