"""Risk-informed analysis of operator behavior on human-machine interfaces.

The pipeline: load an interface knowledge graph, align tracker session
logs to its elements, detect error-prone and time-deviated operation
paths, compute procedure-driven interface metrics, and classify each
path's performance-influencing-factor level with a small neural network.
Each name is imported from the module that defines it.
"""

__version__ = "0.1.0"
