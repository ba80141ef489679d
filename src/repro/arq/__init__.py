"""ARQ: the architecture-level quantum simulator of the paper.

ARQ "takes a description of a general quantum circuit ... maps it onto a
specified physical layout, and generates pulse sequence files, which are then
executed on the general quantum architecture simulator", avoiding exponential
cost by working in the stabilizer formalism.  This package is the
reproduction of that tool-chain:

* :mod:`repro.arq.mapper` -- attach physical movement to a logical circuit
  according to the QLA tile layout,
* :mod:`repro.arq.pulse` -- flatten the mapped circuit into a timed physical
  operation ("pulse") schedule,
* :mod:`repro.arq.simulator` -- execute a circuit on the stabilizer backend
  under the technology noise model,
* :mod:`repro.arq.experiments` -- the paper's empirical studies: the logical
  gate failure-rate sweep of Figure 7 and the non-trivial-syndrome-rate
  measurement of Section 4.1.1 (run them through :func:`repro.api.run`).
"""

from repro.arq.mapper import MappedCircuit, LayoutMapper
from repro.arq.pulse import PulseSchedule, build_pulse_schedule
from repro.arq.simulator import (
    BatchExecutionResult,
    BatchedNoisyCircuitExecutor,
    ExecutionResult,
    NoisyCircuitExecutor,
)
from repro.arq.experiments import (
    Level1EccExperiment,
    ThresholdSweepResult,
)

__all__ = [
    "MappedCircuit",
    "LayoutMapper",
    "PulseSchedule",
    "build_pulse_schedule",
    "NoisyCircuitExecutor",
    "ExecutionResult",
    "BatchedNoisyCircuitExecutor",
    "BatchExecutionResult",
    "Level1EccExperiment",
    "ThresholdSweepResult",
]
