"""Reference engines kept as test oracles.

The library ships one engine per concern: the strided analog forward
(:mod:`repro.nn.layers`) and the window-scheduled simulator
(:meth:`repro.snn.simulator.TimeSteppedSimulator.run`).  The simpler engines
they replaced live here, unchanged, so the equivalence suites and
``benchmarks/bench_hot_paths.py`` can keep checking and timing the production
engines against them:

* :mod:`oracles.conv` -- the per-kernel-offset loop im2col/col2im and the
  channels-first loop convolution,
* :mod:`oracles.simulator` -- the time-outer stepped loop and the
  unscheduled (full-grid) fused fold.

Nothing under ``src/`` may import this package.
"""
