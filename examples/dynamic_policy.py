#!/usr/bin/env python3
"""Dynamic policies: the funding-agency demo window and hot reload.

The paper motivates policies that adapt over time — "an active demo
for a funding agency that should have priority".  This example shows
the two dynamic mechanisms:

1. a **time-windowed statement** that grants an analyst a huge demo
   allocation only during the demo slot, and
2. a **versioned policy store** hot-reloading a tightened site policy
   while the resource keeps running — the next request sees the new
   epoch, no restart — and rolling it back.

Run:  python examples/dynamic_policy.py
"""

from repro import GramClient, GramService, ServiceConfig, parse_policy
from repro.core.analysis import diff_policies
from repro.core.callout import GRAM_AUTHZ_CALLOUT
from repro.core.dynamic import DynamicEvaluator, DynamicPolicy
from repro.core.model import PolicyAssertion, PolicyStatement, Subject
from repro.core.store import PolicyBundle, VersionedPolicyStore

ALICE = "/O=Grid/OU=fusion/CN=Alice Analyst"

BASE_POLICY = f"""
{ALICE}:
    &(action=start)(executable=TRANSP)(count<=4)(jobtag!=NULL)
    &(action=information)(jobowner=self)
"""

TIGHTENED_POLICY = f"""
{ALICE}:
    &(action=start)(executable=TRANSP)(count<=2)(jobtag!=NULL)
"""

DEMO_JOB = "&(executable=TRANSP)(count=16)(jobtag=DEMO)(runtime=50)"
NORMAL_JOB = "&(executable=TRANSP)(count=4)(jobtag=NFC)(runtime=50)"


def main() -> None:
    service = GramService(ServiceConfig(node_count=8, cpus_per_node=4))

    # Wire the PEP to a dynamic policy: base + a demo window 100..200.
    dynamic = DynamicPolicy(parse_policy(BASE_POLICY, name="vo"))
    demo_grant = PolicyStatement(
        subject=Subject.identity(ALICE),
        assertions=(
            PolicyAssertion.parse(
                "&(action=start)(executable=TRANSP)(count<=16)(jobtag=DEMO)"
            ),
        ),
    )
    dynamic.add_window(demo_grant, not_before=100.0, not_after=200.0)
    evaluator = DynamicEvaluator(dynamic, service.clock)
    service.registry.clear(GRAM_AUTHZ_CALLOUT)
    service.registry.register(GRAM_AUTHZ_CALLOUT, evaluator.evaluate)

    alice = GramClient(service.add_user(ALICE, "alice"), service.gatekeeper)

    print("== t=0: before the demo window ==")
    print(f"   16-CPU demo job : {alice.submit(DEMO_JOB).code.name}")
    print(f"   4-CPU normal job: {alice.submit(NORMAL_JOB).code.name}")

    service.run(150.0)
    print("\n== t=150: inside the demo window (100..200) ==")
    print(f"   16-CPU demo job : {alice.submit(DEMO_JOB).code.name}")

    service.run(100.0)
    print("\n== t=250: window closed again ==")
    print(f"   16-CPU demo job : {alice.submit(DEMO_JOB).code.name}")

    # Hot reload through a versioned store: the service serves the
    # store's active snapshot and swaps in every publish atomically.
    print("\n== policy store: hot-reloading a tightened policy ==")
    store = VersionedPolicyStore()
    site = GramService(
        ServiceConfig(
            node_count=8,
            cpus_per_node=4,
            policies=(parse_policy(BASE_POLICY, name="vo"),),
            policy_store=store,
        )
    )
    alice = GramClient(site.add_user(ALICE, "alice"), site.gatekeeper)

    first = store.active()
    print(f"   epoch {first.epoch}: normal job -> {alice.submit(NORMAL_JOB).code.name}")
    tightened = store.publish(PolicyBundle.from_texts({"vo": TIGHTENED_POLICY}))
    print(f"   published epoch {tightened.epoch} ({tightened.short_digest}); diff:")
    diff = diff_policies(first.policies[0], tightened.policies[0])
    for line in str(diff).splitlines():
        print(f"     {line}")
    print(f"   epoch {tightened.epoch}: normal job -> "
          f"{alice.submit(NORMAL_JOB).code.name}")
    rolled = store.rollback()
    print(f"   rolled back (epoch {rolled.epoch}, {rolled.short_digest}): "
          f"normal job -> {alice.submit(NORMAL_JOB).code.name}")


if __name__ == "__main__":
    main()
