"""Cost accounting for splitting-likelihood evaluations.

The number of splitting-density evaluations is the cost axis all
algorithms are compared on, so every call site shares one counter.
The counter takes no lock: it counts the run of the one thread that
increments it, and jetclust starts no threads.
"""


class CostCounter:
    """Monotone tally of one thread's run, resettable only between runs.

    `count` is a plain int attribute: the density kernel adds 1 to it
    directly, and other callers add through `increment(n)`.  Increments
    made from several threads at once can be lost."""

    def __init__(self) -> None:
        self.count = 0

    def increment(self, n: int = 1) -> None:
        self.count += n

    def reset(self) -> None:
        self.count = 0


# Single shared tally of splitting_log_likelihood calls, wherever they
# happen (planner scoring, beam seeding, policy feature extraction, ...).
PS_EVALUATIONS = CostCounter()
