"""Cooperative game abstraction (Definition 3)."""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, Hashable, Iterable, List, Sequence, Tuple

__all__ = ["CooperativeGame"]

Player = Hashable


class CooperativeGame:
    """A cooperative game ``(Z, v)`` with memoised characteristic-function evaluations.

    Parameters
    ----------
    players:
        The player set ``Z``.  Order is preserved for reporting but has no
        semantic meaning.
    characteristic:
        A callable mapping a tuple of players (a coalition) to a real payoff.
        ``v(emptyset)`` is forced to 0 as Definition 3 requires; the callable
        is never invoked on the empty coalition, and on any other coalition
        at most once: evaluations are memoised, because the PDSL
        characteristic (validation accuracy of an averaged model, eq. 16) is
        expensive and both Shapley computations re-query many coalitions.
    """

    def __init__(
        self,
        players: Sequence[Player],
        characteristic: Callable[[Tuple[Player, ...]], float],
    ) -> None:
        players = list(players)
        if len(players) == 0:
            raise ValueError("a cooperative game needs at least one player")
        if len(set(players)) != len(players):
            raise ValueError("players must be distinct")
        self.players: List[Player] = players
        self._position: Dict[Player, int] = {p: k for k, p in enumerate(players)}
        self._characteristic = characteristic
        self._cache: Dict[FrozenSet[Player], float] = {}
        self._evaluations = 0

    @property
    def num_players(self) -> int:
        return len(self.players)

    @property
    def num_evaluations(self) -> int:
        """How many times the underlying characteristic function was actually called."""
        return self._evaluations

    def value(self, coalition: Iterable[Player]) -> float:
        """Evaluate ``v(coalition)`` with memoisation; ``v(emptyset) = 0``."""
        members = set(coalition)
        unknown = [p for p in members if p not in self._position]
        if unknown:
            raise ValueError(f"unknown players in coalition: {unknown}")
        members = tuple(sorted(members, key=self._position.__getitem__))
        if not members:
            return 0.0
        key = frozenset(members)
        if key not in self._cache:
            self._cache[key] = float(self._characteristic(members))
            self._evaluations += 1
        return self._cache[key]

    def marginal_contribution(self, player: Player, coalition: Iterable[Player]) -> float:
        """``v(coalition ∪ {player}) - v(coalition)`` for ``player`` not in ``coalition``."""
        coalition = set(coalition)
        if player in coalition:
            raise ValueError("player already belongs to the coalition")
        return self.value(coalition | {player}) - self.value(coalition)

    def grand_coalition_value(self) -> float:
        """``v(Z)``, the payoff of the full player set."""
        return self.value(self.players)
