"""Reference implementations the production code is checked against.

The production crypto core and codec have one path each. The simpler
implementations they replaced live here, outside ``src/``, so that

* property tests can assert production == oracle on the same inputs
  (``tests/crypto/test_fastcore.py``, ``tests/crypto/test_encoding.py``);
* the benchmarks can time an honest "before" arm
  (``benchmarks/bench_crypto_fastpath.py``,
  ``benchmarks/profile_hotspots.py``) through :func:`seed_arms.seed_arms`.

Modules:

* :mod:`tests.oracles.seed_codec` -- the list-of-chunks canonical
  encoder and the copy-then-walk decoder;
* :mod:`tests.oracles.seed_ec` -- the 4-bit Strauss/Shamir joint ladder
  behind the Schnorr verification equation and batch verification,
  plus the non-interning point decode;
* :mod:`tests.oracles.seed_arms` -- a context manager that swaps those
  oracles into the running process for the duration of a benchmark arm.
"""
