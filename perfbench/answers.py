"""Hand-written known answers, recorded with the canonical names.

Each digest is ``repro.obs.store.certificate_digest`` of the certificate
derived with lock ``q0`` and queue ``rdq``.  A verdict made under fresh
names is mapped back to these names (``harness.answer_digest``) before it
is compared, so every verdict of every run is checked against one fixed
answer.  A change to any of these values is a change to what the
program proves and must be explained where it is made.
"""

#: Fig. 5 certificates: name -> (ok, obligations, digest).
COLD_FIG5 = {
    "accept": {
        "lock_stack": (True, 75, "2d71899b40b79e4de34fe445cf391a8b3e080695f0f2901b94d6e66dfe947a27"),
        "queue_stack": (True, 101, "a2d92413a74d12bc9f93ec2819567b33fcd2c7d52d19c91ef571227965ce20bf"),
        "compile": (True, 12, "378d7c7c92e2f331422359ed2124462c1f2be0addc3c617cb9393efef427fbd3"),
        "soundness": (True, 76, "b3d447ab5a0830e798ca2dfb85943087c8a0bd2444e5514d60fddb0f2ae32391"),
    },
    # The ticket lock whose rel never pushes: Fun* must refuse it.
    "reject": {
        "broken_rel": (False, 13, "3282a9c9fe1772fe364ee41a2a16d297b690d8f2675a275b7045b82c6c4771ae"),
        "counterexamples": 4,
    },
}

#: The incremental unit: certificate -> (obligations, digest), and per
#: step kind the obligations (reused, re-checked) the cache must report.
EDIT_REVERIFY = {
    "certificates": {
        "ticket_stack": (75, "2d71899b40b79e4de34fe445cf391a8b3e080695f0f2901b94d6e66dfe947a27"),
        "mcs_stack": (283, "b7eb86caaa55d2dfe4c39e68182a480973e9ebf9c6897ccd62a89d5dc14e49eb"),
        "queue_stack": (334, "16df16192746214f7b5027229480355eef9b38a8aa2556f025881733432313ac"),
        "soundness": (284, "96c4a92b6aa7d126a601a63f153b2e7174972ea524e85ea5a05efd52247a2a45"),
    },
    "steps": {
        "warm-up": (0, 43),
        "acq": (0, 6),
        "rel": (2, 4),
        "none": (0, 0),
    },
}

#: Served result documents for default parameters: stack -> the name of
#: its one certificate and that certificate's digest.
SERVE_MIXED = {
    "ticket": ("lock_stack", "2d71899b40b79e4de34fe445cf391a8b3e080695f0f2901b94d6e66dfe947a27"),
    "mcs": ("lock_stack", "bdb35489b02533555f70bc282d3201c97e423c1c28762f53df1116e597d39cfe"),
    "queue": ("queue_stack", "a2d92413a74d12bc9f93ec2819567b33fcd2c7d52d19c91ef571227965ce20bf"),
}
