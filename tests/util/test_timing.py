"""The stage timings record: aggregation, rendering."""

import pytest

from repro.util.timing import StageTimings, StageTiming


class TestStageTimings:
    def _sample(self) -> StageTimings:
        return StageTimings(
            stages=[
                StageTiming("observe", 2.0),
                StageTiming("enrich", 1.0),
                StageTiming("enrich", 0.5),
            ]
        )

    def test_total_sums_all_stages(self):
        assert self._sample().total == pytest.approx(3.5)

    def test_repeated_names_accumulate(self):
        timings = self._sample()
        assert timings.seconds("enrich") == pytest.approx(1.5)
        assert timings.as_dict() == pytest.approx({"observe": 2.0, "enrich": 1.5})

    def test_unknown_stage_raises(self):
        with pytest.raises(KeyError):
            self._sample().seconds("nope")

    def test_get_returns_default_for_unknown_stage(self):
        timings = self._sample()
        assert timings.get("nope") == 0.0
        assert timings.get("nope", -1.0) == -1.0
        assert timings.get("enrich") == pytest.approx(1.5)

    def test_render_mentions_every_stage_and_total(self):
        text = self._sample().render()
        for token in ("observe", "enrich", "total"):
            assert token in text

    def test_render_empty(self):
        assert "no stages" in StageTimings().render()
