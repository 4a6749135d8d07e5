"""The enrichment orchestrator: dataset + services -> enriched dataset.

For every distinct collected binary the pipeline (a) obtains the AV
verdict panel from the VirusTotal simulation and (b) submits executable
samples to the Anubis service at their collection time.  Results land in
each :class:`~repro.egpm.events.SampleRecord`'s ``enrichment`` mapping
under the keys ``'av_labels'`` and ``'anubis'``.
"""

from __future__ import annotations

from repro.egpm.dataset import SGNetDataset
from repro.enrich.virustotal import VirusTotalService
from repro.obs import metrics as obs_metrics
from repro.obs.trace import current_tracer
from repro.sandbox.anubis import AnubisService


class EnrichmentPipeline:
    """Couples a dataset with the external analysis services."""

    def __init__(self, anubis: AnubisService, virustotal: VirusTotalService) -> None:
        self.anubis = anubis
        self.virustotal = virustotal
        self.n_enriched = 0
        self.n_executed = 0
        self.n_not_executable = 0

    def enrich(self, dataset: SGNetDataset) -> None:
        """Enrich every sample record in ``dataset`` in place.

        Corrupted binaries (truncated downloads) are scanned by the AV
        panel but cannot be executed — reproducing the paper's
        6353-collected vs 5165-behaviourally-analysed gap.  The pass's
        verdicts share one string per distinct label.

        Sandbox executions run as one batch (run seeds derive from
        MD5s, so each profile depends only on its own sample), in
        record order, so reports are inserted in first-submission order.
        """
        before = self.stats()
        tracer = current_tracer()
        executable = []
        labels: dict[str, str] = {}
        with tracer.span("enrich.av_scan"):
            for record in dataset.samples.values():
                if record.ground_truth is not None:
                    record.enrichment["av_labels"] = self.virustotal.scan(
                        record.md5, record.ground_truth, labels
                    )
                if record.observable.corrupted or record.behavior_handle is None:
                    self.n_not_executable += 1
                else:
                    executable.append(record)
                self.n_enriched += 1
        with tracer.span("enrich.sandbox_batch") as span:
            reports = self.anubis.submit_batch(
                [(r.md5, r.behavior_handle, r.first_seen) for r in executable]
            )
            for record, report in zip(executable, reports):
                record.enrichment["anubis"] = report
                self.n_executed += 1
            span.set(submitted=len(executable))
        registry = obs_metrics.active()
        after = self.stats()
        registry.counter("enrich.samples_enriched").inc(
            after["enriched"] - before["enriched"]
        )
        registry.counter("enrich.samples_executed").inc(
            after["executed"] - before["executed"]
        )
        registry.counter("enrich.samples_not_executable").inc(
            after["not_executable"] - before["not_executable"]
        )

    def stats(self) -> dict[str, int]:
        """Counter snapshot for reporting."""
        return {
            "enriched": self.n_enriched,
            "executed": self.n_executed,
            "not_executable": self.n_not_executable,
        }
