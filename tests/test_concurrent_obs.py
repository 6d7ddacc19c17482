"""Observability under concurrency: no lost counts.

One :class:`~repro.obs.Metrics` registry is shared by every thread that
reports into it (``repro serve`` updates it from tenant threads while
the server thread reads it).  Counter increments and histogram
observations made from many threads at once must never be lost.
"""

import threading

from repro.obs import Metrics


class TestMetricsThreadSafety:
    def test_hammered_counters_and_histograms_lose_nothing(self):
        metrics = Metrics()
        threads, per_thread = 8, 500

        def hammer():
            for i in range(per_thread):
                metrics.incr("queries")
                metrics.observe("steps_per_query", float(i))

        workers = [threading.Thread(target=hammer) for _ in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        assert metrics.counter("queries") == threads * per_thread
        histogram = metrics.histogram("steps_per_query")
        assert histogram is not None
        assert histogram.to_dict()["count"] == threads * per_thread
