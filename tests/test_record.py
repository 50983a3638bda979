"""The immutable value records that replace frozen dataclasses."""

import numpy as np
import pytest

from qfpsim.bounds import MarginReport
from qfpsim.compiler import ClassicalSMPProtocol, OneWayProtocol
from qfpsim.embeddings import EmbeddingReport, Realization, RealizationReport, ThresholdEmbedding
from qfpsim.projections import DistortionReport


def margin_report(**changes):
    fields = dict(forster=0.5, linial=None, upper=0.5, heuristic_lower=0.25,
                  qent_lower_bits=2.0, repetition_lower=4.0, gamma_source="upper_bound")
    return MarginReport(**{**fields, **changes})


def unit_pair():
    return np.eye(2), np.eye(2)


class TestFields:
    def test_reports_spliced_into_json_keep_their_key_order(self):
        # cli writes **report._asdict() into its documents, in this order
        assert MarginReport._fields == ("forster", "linial", "upper", "heuristic_lower",
                                        "qent_lower_bits", "repetition_lower", "gamma_source")
        assert EmbeddingReport._fields == ("valid", "worst_zero_side", "worst_one_side",
                                           "worst_zero_pair", "worst_one_pair")
        assert RealizationReport._fields == ("valid", "achieved_margin", "worst_pair")
        assert DistortionReport._fields == ("ok", "worst_pair", "max_distortion",
                                            "max_inner_product_error")

    def test_positional_signatures_put_base_fields_first(self):
        assert ThresholdEmbedding._fields == ("alphas", "betas", "delta0", "delta1")
        assert Realization._fields == ("alphas", "betas", "gamma")
        assert ClassicalSMPProtocol._fields == ("n", "c", "rand_strings", "alice_messages",
                                                "bob_messages", "accept")
        assert OneWayProtocol._fields == ("n", "c", "rand_strings", "alice_messages",
                                          "bob_accept")

    def test_asdict_follows_the_fields(self):
        report = RealizationReport(True, 0.5, (1, 0))
        assert report._asdict() == {"valid": True, "achieved_margin": 0.5, "worst_pair": (1, 0)}
        assert list(report._asdict()) == list(RealizationReport._fields)


class TestConstruction:
    def test_position_and_keyword_give_the_same_record(self):
        a, b = unit_pair()
        by_keyword = Realization(gamma=0.5, betas=b, alphas=a)
        assert by_keyword.gamma == 0.5 and by_keyword.alphas.tolist() == a.tolist()
        assert margin_report() == MarginReport(0.5, None, 0.5, 0.25, 2.0, 4.0, "upper_bound")

    @pytest.mark.parametrize("build", [
        lambda a, b: Realization(a, b),
        lambda a, b: Realization(a, b, 0.5, 0.5),
        lambda a, b: Realization(a, b, margin=0.5),
        lambda a, b: Realization(a, b, 0.5, alphas=a),
    ], ids=["missing", "extra", "unexpected", "repeated"])
    def test_arity_errors_are_type_errors(self, build):
        with pytest.raises(TypeError, match="Realization"):
            build(*unit_pair())

    def test_post_init_checks_by_position_and_by_keyword(self):
        a, b = unit_pair()
        with pytest.raises(ValueError, match="margin must lie in"):
            Realization(a, b, 1.5)
        with pytest.raises(ValueError, match="margin must lie in"):
            Realization(alphas=a, betas=b, gamma=1.5)
        with pytest.raises(ValueError, match="not a unit vector"):
            ThresholdEmbedding(2 * a, b, delta0=0.0, delta1=1.0)


class TestImmutability:
    def test_assignment_and_deletion_raise_attribute_error(self):
        report = margin_report()
        with pytest.raises(AttributeError):
            report.upper = 1.0
        with pytest.raises(AttributeError):
            report.extra = 1.0
        with pytest.raises(AttributeError):
            del report.upper
        assert report.upper == 0.5


class TestValueSemantics:
    def test_equal_fields_compare_and_hash_equal(self):
        assert margin_report() == margin_report()
        assert hash(margin_report()) == hash(margin_report())
        assert margin_report() != margin_report(upper=0.25)

    def test_other_classes_are_never_equal(self):
        report = margin_report()
        assert report != tuple(report._asdict().values())
        assert report.__eq__(report._asdict()) is NotImplemented

    def test_repr_lists_the_fields(self):
        assert repr(RealizationReport(True, 0.5, None)) == (
            "RealizationReport(valid=True, achieved_margin=0.5, worst_pair=None)")
