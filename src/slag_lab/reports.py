"""Audit and solver report records with a stable JSON schema."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class AuditReport:
    """Outcome of one audit. `passed` is true iff the violation list is empty.

    Violations are (node, quantity, value) triples sorted by node index;
    `min_margin` is the smallest slack seen over all checked nodes (negative
    margins are violations).
    """

    name: str
    checked_nodes: int
    violations: list = field(default_factory=list)
    min_margin: float = float("inf")
    details: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return len(self.violations) == 0

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "checked_nodes": self.checked_nodes,
            "violations": [
                {"node": list(node), "quantity": quantity, "value": value}
                for node, quantity, value in self.violations
            ],
            "min_margin": self.min_margin,
            "passed": self.passed,
        }

    def summary_row(self) -> dict:
        return {
            "name": self.name,
            "checked_nodes": self.checked_nodes,
            "min_margin": f"{self.min_margin:.6e}",
            "passed": str(self.passed).lower(),
        }


@dataclass
class SolveReport:
    """Newton iteration record for one Dirichlet solve."""

    iterations: int = 0
    final_residual: float = float("inf")
    step_history: list = field(default_factory=list)
    min_eigen_history: list = field(default_factory=list)
    converged: bool = False
    convexity_breached: bool = False
    stop_reason: str = ""  # converged, max_iters, step_underflow, non_finite_step

    def to_json(self) -> dict:
        return {
            "schema_version": 2,
            "iterations": self.iterations,
            "final_residual": self.final_residual,
            "converged": self.converged,
            "stop_reason": self.stop_reason,
            "convexity_breached": self.convexity_breached,
            "step_history": list(self.step_history),
            "min_eigen_history": list(self.min_eigen_history),
        }
