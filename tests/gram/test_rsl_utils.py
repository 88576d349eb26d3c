"""Job-description canonicalisation."""

import pytest

from repro.core.parser import parse_policy
from repro.gram.client import GramClient
from repro.gram.protocol import GramErrorCode
from repro.gram.rsl_utils import (
    DEFAULT_COUNT,
    DEFAULT_QUEUE,
    DEFAULT_RUNTIME,
    JobDescription,
    JobDescriptionError,
)
from repro.gram.service import GramService, ServiceConfig
from repro.rsl.parser import parse_specification


def describe(rsl: str) -> JobDescription:
    return JobDescription.from_spec(parse_specification(rsl))


class TestRequiredFields:
    def test_executable_required(self):
        with pytest.raises(JobDescriptionError):
            describe("&(count=2)")

    def test_minimal_description(self):
        description = describe("&(executable=sim)")
        assert description.executable == "sim"
        assert description.count == DEFAULT_COUNT
        assert description.queue == DEFAULT_QUEUE
        assert description.runtime == DEFAULT_RUNTIME


class TestDefaults:
    def test_count_default_is_canonicalised_into_spec(self):
        description = describe("&(executable=sim)")
        assert description.spec.first_value("count") == "1"

    def test_explicit_count_not_duplicated(self):
        description = describe("&(executable=sim)(count=4)")
        assert len(description.spec.relations_for("count")) == 1
        assert description.count == 4

    def test_runtime_defaults_to_walltime(self):
        description = describe("&(executable=sim)(maxwalltime=600)")
        assert description.runtime == 600.0

    def test_explicit_runtime_wins(self):
        description = describe("&(executable=sim)(maxwalltime=600)(runtime=50)")
        assert description.runtime == 50.0


class TestValidation:
    def test_nonpositive_count_rejected(self):
        with pytest.raises(JobDescriptionError):
            describe("&(executable=sim)(count=0)")

    def test_non_numeric_count_rejected(self):
        with pytest.raises(JobDescriptionError):
            describe("&(executable=sim)(count=many)")

    def test_non_numeric_walltime_rejected(self):
        with pytest.raises(JobDescriptionError):
            describe("&(executable=sim)(maxwalltime=long)")

    def test_negative_runtime_rejected(self):
        with pytest.raises(JobDescriptionError):
            describe("&(executable=sim)(runtime=-5)")


class TestAccessors:
    def test_full_description(self):
        description = describe(
            "&(executable=TRANSP)(directory=/opt/nfc)(count=8)(queue=batch)"
            "(jobtag=NFC)(maxwalltime=3600)(maxcputime=7200)(runtime=1800)"
        )
        assert description.executable == "TRANSP"
        assert description.directory == "/opt/nfc"
        assert description.count == 8
        assert description.queue == "batch"
        assert description.jobtag == "NFC"
        assert description.max_walltime == 3600.0
        assert description.max_cputime == 7200.0
        assert description.runtime == 1800.0

    def test_absent_optionals_are_none_or_empty(self):
        description = describe("&(executable=sim)")
        assert description.directory == ""
        assert description.jobtag is None
        assert description.max_walltime is None
        assert description.max_cputime is None


#: Words ``float`` reads as numbers but RSL does not: not finite, too
#: large for a float, or written with an underscore.
NOT_FINITE_DECIMALS = ("1e400", "nan", "inf", "1_000")
NUMERIC_ATTRIBUTES = ("count", "runtime", "maxwalltime", "maxcputime")


class TestFiniteDecimalsOnly:
    @pytest.mark.parametrize("attribute", NUMERIC_ATTRIBUTES)
    @pytest.mark.parametrize("word", NOT_FINITE_DECIMALS)
    def test_not_a_finite_decimal_is_rejected(self, attribute, word):
        with pytest.raises(JobDescriptionError) as caught:
            describe(f"&(executable=sim)({attribute}={word})")
        assert repr(word) in str(caught.value)

    def test_variable_reference_is_not_a_number(self):
        with pytest.raises(JobDescriptionError):
            describe("&(executable=sim)(count=$(CPUS))")

    def test_quoted_and_fractional_numbers_still_read(self):
        description = describe('&(executable=sim)(count="4.7")(runtime=1e2)')
        assert description.count == 4
        assert description.runtime == 100.0

    def test_first_equality_relation_wins(self):
        description = describe("&(executable=sim)(count>2)(count=3)(count=5)")
        assert description.count == 3
        assert len(description.spec.relations_for("count")) == 3

    def test_count_under_another_operator_is_not_canonicalised(self):
        description = describe("&(executable=sim)(count>2)")
        assert description.count == DEFAULT_COUNT
        assert [str(r) for r in description.spec.relations_for("count")] == ["(count>2)"]


class TestBadNumbersThroughGram:
    """A number RSL does not accept is BAD_RSL, and frees the user's slot."""

    USER = "/O=Grid/OU=numbers/CN=Nina"
    POLICY = f"""
{USER}:
    &(action=start)(executable=sim)
"""

    def build(self, **config):
        service = GramService(
            ServiceConfig(
                policies=(parse_policy(self.POLICY, name="vo"),),
                max_jobs_per_user=2,
                **config,
            )
        )
        if service.dynamic_pool is None:
            credential = service.add_user(self.USER, "nina")
        else:
            # No grid-mapfile entry: the Gatekeeper leases a dynamic account.
            credential = service.ca.issue(self.USER, now=0.0)
        return service, GramClient(credential, service.gatekeeper)

    @pytest.mark.parametrize(
        "config",
        [{}, {"pep_in_gatekeeper": True}, {"gt3_account_setup": True, "dynamic_pool_size": 2}],
        ids=["jmi", "gatekeeper-pep", "gt3-account"],
    )
    @pytest.mark.parametrize("attribute", NUMERIC_ATTRIBUTES)
    @pytest.mark.parametrize("word", NOT_FINITE_DECIMALS)
    def test_bad_rsl_and_no_leaked_slot(self, config, attribute, word):
        service, client = self.build(**config)
        admission = service.gatekeeper.admission
        for _ in range(3):
            response = client.submit(f"&(executable=sim)({attribute}={word})")
            assert response.code is GramErrorCode.BAD_RSL
            assert repr(word) in response.message
            # Steps 2b and 3b answer before a JMI (and its contact) exists.
            assert (response.contact is not None) == (not config)
            assert admission.in_flight(self.USER) == 0
        service.run(100.0)
        assert admission.in_flight(self.USER) == 0
        assert client.submit("&(executable=sim)(runtime=10)").ok
