"""Exception hierarchy shared across the simulator.

``cli.main`` maps ConfigError, TopologyError and SimulationError (including
its subclass WorkingSetUnderflow) to the exit codes ``cli.EXIT_CONFIG``,
``cli.EXIT_TOPOLOGY`` and ``cli.EXIT_SIM``.
"""


class ConfigError(ValueError):
    """Bad architecture config: missing key, illegal value, overlapping regions."""


class TopologyError(ValueError):
    """Bad topology file or layer description."""


class SimulationError(RuntimeError):
    """A layer could not be simulated with the given architecture."""


class WorkingSetUnderflow(SimulationError):
    """A single cycle demands more distinct operand bytes than one buffer holds."""
