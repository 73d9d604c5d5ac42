"""Query batching for concurrent search clients (the serving layer).

Measured at 22M turns: one driver thread issuing two-phase fan-outs
sustains ~30 QPS; EIGHT threads issuing them concurrently drop to
~13 QPS (each query fans to every range actor, so concurrent queries
interleave on the same pool and only add dispatch + GIL overhead) —
while `bm25_msearch` batching 8 queries into ONE fan-out round
sustains ~70 QPS.  The classic fix is request batching, not client
concurrency: this module's ``SearchBatcher`` gives concurrent callers
a blocking ``search(terms)`` that transparently coalesces in-flight
requests into msearch rounds.

One collector thread drains the queue into rounds (everything queued
at that moment, up to ``max_batch``) and hands each round to a small
executor with ``inflight`` slots (default 2, double buffering): while
round N's two-phase fan-out blocks in ``ray.get``, round N+1 is
already collecting AND dispatching — its phase-1 tasks fill the pool
bubbles left by round N's stragglers, so the pool never idles between
rounds.  Callers block on a per-request event — under load batches
fill naturally between rounds (no artificial latency window; an idle
server executes a lone query immediately).  Exactness: msearch results
are identical to individual ``bm25_topk`` calls
(test_msearch_matches_individual_queries), so batching changes
throughput, never answers.

``close()`` serves every request queued before it, then stops the
collector; a ``search()`` on a closed batcher raises
:class:`BatcherClosed` at once instead of waiting on a collector that
is gone.
"""

from __future__ import annotations

import queue
import threading
from concurrent.futures import ThreadPoolExecutor


class BatcherClosed(RuntimeError):
    """``search()`` was called after ``close()``."""


class SearchBatcher:
    """Blocking BM25 search facade that coalesces concurrent callers
    into msearch rounds against one index, with ``inflight`` rounds
    pipelined (double-buffered fan-outs)."""

    def __init__(self, index_dir: str, k: int = 10, max_batch: int = 32,
                 field: str = "text", inflight: int | None = None):
        self._index_dir = index_dir
        self._k = k
        self._field = field
        self._max_batch = max_batch
        self._q: queue.Queue = queue.Queue()
        # guards _closed and every put, so nothing is queued behind the
        # close sentinel (the collector stops at the sentinel)
        self._lock = threading.Lock()
        self._closed = False
        self._round = 0  # replica-group rotation counter
        if inflight is None:
            # one pipelined round per replica group, plus one to cover
            # the driver-side collect/merge bubble — so every group's
            # actors stay busy as the pool (= cluster) grows
            import ray

            if ray.is_initialized():
                from ..query.distributed import (serve_partitions,
                                                 worker_pool)

                r = max(1, len(worker_pool()) // serve_partitions())
                inflight = r + 1
            else:
                inflight = 2
        self._sem = threading.Semaphore(max(1, inflight))
        self._pool = ThreadPoolExecutor(max_workers=max(1, inflight))
        self._thread = threading.Thread(target=self._collect, daemon=True)
        self._thread.start()

    def search(self, terms: tuple[str, ...]):
        """Blocking: returns this query's (doc_id, score) Table slice."""
        ev = threading.Event()
        box: list = [None, None]
        with self._lock:
            if self._closed:
                raise BatcherClosed("search() on a closed SearchBatcher")
            self._q.put((terms, ev, box))
        ev.wait()
        if box[1] is not None:
            raise box[1]
        return box[0]

    def close(self):
        with self._lock:
            if not self._closed:
                self._closed = True
                self._q.put(None)
        self._thread.join()
        self._pool.shutdown(wait=True)

    # ------------------------------------------------------- collector

    def _collect(self):
        while True:
            first = self._q.get()
            if first is None:
                return
            batch = [first]
            last = False
            while len(batch) < self._max_batch:
                try:
                    item = self._q.get_nowait()
                except queue.Empty:
                    break
                if item is None:
                    last = True
                    break
                batch.append(item)
            # backpressure: at most ``inflight`` rounds in the air —
            # acquire BEFORE submit so queue drains track real capacity
            self._sem.acquire()
            group = self._round
            self._round += 1
            self._pool.submit(self._run_round, batch, group)
            if last:
                return

    def _run_round(self, batch, group):
        from .bm25 import bm25_msearch

        try:
            import numpy as np

            res = bm25_msearch("", queries=tuple(b[0] for b in batch),
                               k=self._k, field=self._field,
                               index_dir=self._index_dir,
                               replica_group=group)
            # res is ordered by query_id: one searchsorted gives every
            # caller's slice zero-copy (a per-caller filter scan was
            # measurable driver overhead at a few hundred QPS)
            qid = res.column("query_id").to_numpy()
            bounds = np.searchsorted(qid, np.arange(len(batch) + 1))
            for i, (_terms, ev, box) in enumerate(batch):
                box[0] = res.slice(
                    bounds[i], bounds[i + 1] - bounds[i]).drop_columns(
                        ["query_id"])
                ev.set()
        except Exception as e:  # deliver the failure to every caller
            for _terms, ev, box in batch:
                box[1] = e
                ev.set()
        finally:
            self._sem.release()
