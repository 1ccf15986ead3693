"""Wire-schema validation: strict in, versioned out."""

import pytest

from repro.core.batch import job_request
from repro.serve import (
    WIRE_SCHEMA_VERSION,
    WireError,
    normalize_job_payload,
    parse_job_payload,
    payload_fingerprint,
    payload_to_batch_job,
    report_to_dict,
)


def payload(**extra):
    base = {"analysis": "coverage", "target": "fig2"}
    base.update(extra)
    return base


class TestValidation:
    def test_minimal_payload_normalizes(self):
        assert normalize_job_payload(payload()) == {
            "analysis": "coverage",
            "target": "fig2",
        }

    def test_analysis_aliases_canonicalize(self):
        # 'fpod' is the historical alias for overflow detection.
        assert normalize_job_payload(payload(analysis="fpod"))[
            "analysis"
        ] == "overflow"

    @pytest.mark.parametrize(
        "bad",
        [
            "not a dict",
            payload(bogus=1),
            payload(analysis=""),
            payload(analysis="no-such-analysis"),
            payload(target=""),
            payload(seed="seven"),
            payload(seed=True),  # bool is not an int on the wire
            payload(niter=1.5),
            payload(smoke="yes"),
            payload(backend="no-such-backend"),
            payload(eval_mode="quantum"),
            payload(label=7),
            # A smoke job runs the analysis's smoke budget and would
            # ignore these.
            payload(smoke=True, rounds=2),
            payload(smoke=True, max_samples=100),
        ],
        ids=lambda b: str(b)[:40],
    )
    def test_bad_payloads_rejected(self, bad):
        with pytest.raises(WireError):
            normalize_job_payload(bad)

    @pytest.mark.parametrize(
        "knob,value",
        [
            ("seed", -1),
            ("starts", -1),
            ("starts", 0),
            ("rounds", -3),
            ("rounds", 0),
            ("niter", 0),
            ("max_samples", 0),
        ],
    )
    def test_knob_below_its_minimum_names_the_field(self, knob, value):
        with pytest.raises(WireError, match=f"'{knob}' must be >= "):
            normalize_job_payload(payload(**{knob: value}))

    def test_knob_minimums_are_accepted(self):
        knobs = {"seed": 0, "starts": 1, "rounds": 1, "niter": 1, "max_samples": 1}
        assert normalize_job_payload(payload(**knobs)) == {**payload(), **knobs}

    def test_unknown_field_error_names_the_field(self):
        with pytest.raises(WireError, match="bogus"):
            normalize_job_payload(payload(bogus=1))

    def test_none_knobs_drop_out_of_canonical_form(self):
        a = normalize_job_payload(payload(seed=None, niter=None))
        b = normalize_job_payload(payload())
        assert a == b
        assert payload_fingerprint(a) == payload_fingerprint(b)

    def test_fingerprint_keys_on_content(self):
        a = payload_fingerprint(normalize_job_payload(payload(seed=1)))
        b = payload_fingerprint(normalize_job_payload(payload(seed=2)))
        assert a != b


class TestTranslation:
    def test_knobs_reach_job_request_unchanged(self):
        normalized = normalize_job_payload(
            payload(
                analysis="overflow",
                target="gsl-bessel",
                seed=3,
                niter=8,
                rounds=4,
                starts=6,
                racing=True,
            )
        )
        job = payload_to_batch_job(normalized)
        assert job.seed == 3
        params = dict(job.params)
        assert params["niter"] == 8
        assert params["rounds"] == 4
        assert params["n_starts"] == 6  # wire 'starts' -> param 'n_starts'
        assert params["racing"] is True
        # And the one shared translator accepts it.
        request = job_request(job)
        assert request.config.seed == 3
        assert request.config.n_starts == 6
        assert request.config.deterministic is False

    def test_smoke_budget_translates(self):
        _, job = parse_job_payload(payload(smoke=True))
        request = job_request(job)
        assert request.config.max_rounds is not None


class TestRenderings:
    def test_report_to_dict_carries_parity_fields(self):
        from repro.api import EngineConfig, Session

        with Session(EngineConfig(seed=7)) as session:
            report = session.run("coverage", "fig2", max_rounds=2)
        rendered = report_to_dict(report)
        assert rendered["schema_version"] == WIRE_SCHEMA_VERSION
        assert rendered["verdict"] == report.verdict
        assert rendered["n_evals"] == report.n_evals
        assert len(rendered["trace"]) == report.rounds
        assert [f["label"] for f in rendered["findings"]] == [
            f.label for f in report.findings
        ]
        for finding in rendered["findings"]:
            assert finding["x"] is None or isinstance(finding["x"], list)


class TestCTargetSpecs:
    """``file.c::fn`` target specs ride the wire unchanged: the spec
    string is data until job time, when the shared translator resolves
    it through :func:`repro.api.targets.parse_target_spec` — the same
    suffix dispatch every campaign shape uses."""

    C_SPEC = "examples/c/fig.c::fig2"

    def test_c_spec_normalizes_verbatim(self):
        normalized = normalize_job_payload(
            payload(analysis="boundary", target=self.C_SPEC)
        )
        assert normalized["target"] == self.C_SPEC

    def test_c_spec_reaches_a_resolvable_job_request(self):
        from repro.api.targets import CTarget

        _, job = parse_job_payload(
            payload(analysis="boundary", target=self.C_SPEC, smoke=True)
        )
        request = job_request(job)
        target = request.target
        if isinstance(target, str):  # spec resolved at session intake
            from repro.api.targets import parse_target_spec

            target = parse_target_spec(target)
        assert isinstance(target, CTarget)
        assert target.entry == "fig2"

    def test_fingerprint_distinguishes_c_and_python_twins(self):
        """Same entry name, different file: the journal key must not
        collide (replay identity is the payload, not the program)."""
        a = payload_fingerprint(
            normalize_job_payload(payload(target=self.C_SPEC))
        )
        b = payload_fingerprint(
            normalize_job_payload(
                payload(target="examples/python_targets.py::fig2")
            )
        )
        assert a != b
