"""In-play betting exchange for a single winner market.

Money is held as integer minor units (cents).  Odds are decimal odds stored
as integer hundredths and must sit on the quantized ladder.  Back and lay
bets carry stakes in backer-stake units; a lay bet escrows its worst-case
liability stake * (odds - 1).  Matching is exact-odds with price-time
priority: an incoming bet trades against the oldest resting opposite bet at
the same odds, partial fills rest in the book, and the matched portion of a
bet is immutable.  Unmatched portions can be cancelled while the market is
open and expire with their escrow returned when betting closes.

The book's read views are kept in step with its price-time queues
(_queues) as bets move, not recomputed on each read: the resting stake of
each level, each competitor's top-of-book GridRow (kept while a change
falls below the levels it shows), and each bettor's open bets as the
OpenBet views its owner is shown (made when a bet rests, replaced when
another bettor part-fills it, dropped on a fill, cancel or expiry).
check_views audits all three against a recount.

Settlement transfers, per match record, the backer winnings on the market
winner and the backer stake on every loser, nets each bettor's market
result, and charges commission on positive nets only.  Per-record winnings
are floored to a cent so the escrowed (ceiling) liability always covers
them; commission rounds half up.  The sum of all bettor deltas plus total
commission is exactly zero.
"""

import math
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from typing import NamedTuple

from .seeding import FieldError

Money = int  # integer minor currency units

MIN_ODDS = 101  # 1.01 in hundredths
MAX_ODDS = 100_000  # 1000.0 in hundredths

BACK = "back"
LAY = "lay"

OPEN = "open"
CLOSED = "closed"
SETTLED = "settled"


class ExchangeError(Exception):
    """Base class for exchange rule violations."""


class MarketClosedError(ExchangeError):
    pass


class InvalidOddsError(ExchangeError):
    pass


class InsufficientFundsError(ExchangeError):
    pass


class UnknownBetError(ExchangeError):
    """Bet id not found, or not owned by the requesting bettor."""


class SettlementError(ExchangeError):
    pass


class EscrowError(ExchangeError):
    """An escrow release outside [0, reserved]: the book's money accounting broke."""


class BookSettingError(ExchangeError, FieldError):
    """A book setting out of bounds, told as a field and a constraint like a config error."""


def check_book_settings(commission_rate: float, grid_depth: int, error=BookSettingError) -> None:
    """The one statement of a book's setting bounds; a breach raises error(field, constraint)."""
    if not 0.0 <= commission_rate < 1.0:
        raise error("commission_rate", f"must be in [0, 1), got {commission_rate}")
    if grid_depth < 1:
        raise error("grid_depth", f"must be >= 1, got {grid_depth}")


def _build_ladder() -> tuple[int, ...]:
    bands = (
        (101, 200, 1),
        (200, 300, 2),
        (300, 400, 5),
        (400, 600, 10),
        (600, 1000, 20),
        (1000, 2000, 50),
        (2000, 3000, 100),
        (3000, 5000, 200),
        (5000, 10_000, 500),
        (10_000, 100_000, 1000),
    )
    vals: list[int] = []
    for lo, hi, step in bands:
        vals.extend(range(lo, hi, step))
    vals.append(MAX_ODDS)
    return tuple(vals)


LADDER: tuple[int, ...] = _build_ladder()
_LADDER_SET = frozenset(LADDER)


def on_ladder(odds: int) -> bool:
    return odds in _LADDER_SET


def quantize_odds(raw: float) -> int:
    """Snap raw decimal odds (> 1.0) to the nearest ladder value, ties up.

    Raw values between 1.0 and 1.01 clamp to 1.01; values above 1000 clamp
    to 1000.  Returns integer hundredths.
    """
    if not raw > 1.0:
        raise InvalidOddsError(f"decimal odds must be > 1.0, got {raw}")
    if raw >= 1000.0:  # before scaling: inf and 1e308 would overflow round()
        return MAX_ODDS
    # Work in 1e-5 odds units so written decimals like 2.01 land exactly
    # between ladder neighbours instead of a float hair to one side.
    h = round(raw * 100_000)
    if h <= MIN_ODDS * 1000:
        return MIN_ODDS
    if h >= MAX_ODDS * 1000:
        return MAX_ODDS
    i = bisect_left(LADDER, -(-h // 1000))
    lo, hi = LADDER[i - 1], LADDER[i]
    if h * 2 >= (lo + hi) * 1000:  # midpoint or above rounds up
        return hi
    return lo


def odds_to_decimal(odds: int) -> float:
    return odds / 100.0


def ladder_band(lo_decimal: float, hi_decimal: float) -> tuple[int, ...]:
    """All ladder values v with lo <= v/100 <= hi, ascending."""
    lo_h = round(lo_decimal * 100)
    hi_h = round(hi_decimal * 100)
    return tuple(v for v in LADDER if lo_h <= v <= hi_h)


def back_winnings(amount: Money, odds: int) -> Money:
    """Backer profit on a win, floored to a cent.  Stake is returned on top."""
    return amount * (odds - 100) // 100


def lay_liability(amount: Money, odds: int) -> Money:
    """Worst-case layer exposure for a backer-stake amount, ceiling to a cent."""
    return -((-amount * (odds - 100)) // 100)


def escrow(side: str, amount: Money, odds: int) -> Money:
    """What a bet holds for a backer-stake amount: a back its stake, a lay its liability."""
    return amount if side == BACK else lay_liability(amount, odds)


def commission_due(gross: Money, rate: float) -> Money:
    """Commission on positive net market winnings, rounded half up."""
    if gross <= 0:
        return 0
    return math.floor(gross * rate + 0.5)


@dataclass
class Account:
    bettor_id: str
    balance: Money
    reserved: Money = 0

    def reserve(self, amount: Money) -> None:
        if amount > self.balance:
            raise InsufficientFundsError(
                f"{self.bettor_id}: need {amount}, free {self.balance}"
            )
        self.balance -= amount
        self.reserved += amount

    def release(self, amount: Money) -> None:
        if not 0 <= amount <= self.reserved:
            raise EscrowError(
                f"{self.bettor_id}: cannot release {amount}, reserved {self.reserved}"
            )
        self.reserved -= amount
        self.balance += amount


@dataclass
class Bet:
    bet_id: int
    bettor_id: str
    competitor_id: str
    side: str
    odds: int
    stake: Money
    arrival_time: float
    matched: Money = 0
    unmatched: Money = 0
    reserved: Money = 0


class OpenBet(NamedTuple):
    """An own bet with unmatched volume, as shown to its owner."""

    bet_id: int
    competitor_id: str
    side: str
    odds: int
    unmatched: Money
    arrival_time: float


def _view(bet: Bet) -> OpenBet:
    """bet as its owner sees it while it rests."""
    return OpenBet(bet.bet_id, bet.competitor_id, bet.side, bet.odds, bet.unmatched, bet.arrival_time)


class MatchRecord(NamedTuple):
    competitor_id: str
    odds: int
    amount: Money
    back_bet_id: int
    lay_bet_id: int
    back_bettor: str
    lay_bettor: str


class GridLevel(NamedTuple):
    odds: int
    stake: Money


class GridRow(NamedTuple):
    """Top-of-book view for one competitor.

    backs hold resting back bets, best level first for a would-be layer
    (highest odds first); lays hold resting lay bets, lowest odds first.
    """

    backs: tuple[GridLevel, ...]
    lays: tuple[GridLevel, ...]


@dataclass(frozen=True)
class SettlementRow:
    bettor_id: str
    gross: Money
    commission: Money
    net: Money


@dataclass(frozen=True)
class SettlementReport:
    winner: str
    rows: tuple[SettlementRow, ...]
    total_commission: Money


class MarketBook:
    """Winner market over a fixed set of competitors with bettor accounts."""

    def __init__(self, competitor_ids, commission_rate: float = 0.05, grid_depth: int = 3):
        ids = tuple(competitor_ids)
        if len(ids) != len(set(ids)) or not ids:
            raise ExchangeError(f"competitor ids must be unique and non-empty, got {ids}")
        check_book_settings(commission_rate, grid_depth)
        self.competitor_ids = ids
        self.commission_rate = commission_rate
        self.grid_depth = grid_depth
        self.state = OPEN
        self.bets: dict[int, Bet] = {}
        self.matches: list[MatchRecord] = []
        self.accounts: dict[str, Account] = {}
        # competitor -> side -> odds -> FIFO of resting bets with unmatched > 0
        self._queues: dict[str, dict[str, dict[int, deque[Bet]]]] = {
            cid: {BACK: {}, LAY: {}} for cid in ids
        }
        # Views kept in step with _queues: the unmatched stake resting at each
        # level (held as the GridLevel the grid shows) and each bettor's open
        # bets by id, held as the OpenBet its owner is shown.
        self._totals: dict[str, dict[str, dict[int, GridLevel]]] = {
            cid: {BACK: {}, LAY: {}} for cid in ids
        }
        self._open: dict[str, dict[int, OpenBet]] = {}
        # market_grid's rows; a None row is rebuilt on demand
        self._rows: dict[str, GridRow | None] = dict.fromkeys(ids)
        self._next_id = 1
        self.self_check = False
        self.self_checks_run = 0

    # -- accounts ---------------------------------------------------------

    def open_account(self, bettor_id: str, balance: Money) -> Account:
        if bettor_id in self.accounts:
            raise ExchangeError(f"account {bettor_id!r} already exists")
        if type(balance) is not int:  # not a bool, not a float
            raise ExchangeError(f"starting balance must be an integer, got {balance!r}")
        if balance < 0:
            raise ExchangeError(f"starting balance must be >= 0, got {balance}")
        acct = Account(bettor_id, balance)
        self.accounts[bettor_id] = acct
        self._open[bettor_id] = {}
        return acct

    def free_balance(self, bettor_id: str) -> Money:
        return self.accounts[bettor_id].balance

    def bets_of(self, bettor_id: str) -> list[Bet]:
        """A bettor's open bets (unmatched > 0), in arrival order."""
        return [self.bets[bet_id] for bet_id in self._open.get(bettor_id, ())]

    def open_bets(self, bettor_id: str) -> tuple[OpenBet, ...]:
        """A bettor's open bets as their owner sees them, in arrival order.

        The views are kept as bets rest, match, cancel and expire, so this
        copies references and reads no bet.
        """
        return tuple(self._open[bettor_id].values())

    # -- order flow -------------------------------------------------------

    def submit_bet(
        self,
        bettor_id: str,
        competitor_id: str,
        side: str,
        odds: int,
        stake: Money,
        time: float = 0.0,
    ) -> tuple[int, list[MatchRecord]]:
        """Accept a bet, match what crosses, rest the remainder.

        Returns the new bet id and the match records created, oldest
        counterparty first.  Raises without side effects on any rule
        violation.
        """
        if self.state != OPEN:
            raise MarketClosedError(f"market is {self.state}")
        acct = self.accounts.get(bettor_id)
        if acct is None:
            raise ExchangeError(f"unknown bettor {bettor_id!r}")
        if competitor_id not in self._queues:
            raise ExchangeError(f"unknown competitor {competitor_id!r}")
        if side not in (BACK, LAY):
            raise ExchangeError(f"side must be 'back' or 'lay', got {side!r}")
        if type(odds) is not int:  # not a bool, and no float that equals a ladder value
            raise InvalidOddsError(f"odds must be an integer, got {odds!r}")
        if not on_ladder(odds):
            raise InvalidOddsError(f"odds {odds} not on the ladder")
        if type(stake) is not int or stake <= 0:  # not a bool, not a float
            raise ExchangeError(f"stake must be a positive integer, got {stake!r}")

        need = escrow(side, stake, odds)
        acct.reserve(need)

        # matched 0, unmatched stake, reserved need
        bet = Bet(self._next_id, bettor_id, competitor_id, side, odds, stake, time, 0, stake, need)
        self._next_id += 1
        self.bets[bet.bet_id] = bet

        records: list[MatchRecord] = []
        opp_side = LAY if side == BACK else BACK
        levels = self._queues[competitor_id][opp_side]
        queue = levels.get(odds)
        while bet.unmatched > 0 and queue:
            resting = queue[0]
            amount = min(bet.unmatched, resting.unmatched)
            back_bet, lay_bet = (bet, resting) if side == BACK else (resting, bet)
            rec = MatchRecord(
                competitor_id=competitor_id,
                odds=odds,
                amount=amount,
                back_bet_id=back_bet.bet_id,
                lay_bet_id=lay_bet.bet_id,
                back_bettor=back_bet.bettor_id,
                lay_bettor=lay_bet.bettor_id,
            )
            records.append(rec)
            bet.matched += amount
            bet.unmatched -= amount
            resting.matched += amount
            resting.unmatched -= amount
            if resting.unmatched == 0:
                queue.popleft()
                del self._open[resting.bettor_id][resting.bet_id]
            else:  # only the last resting bet met can be left part-filled
                self._open[resting.bettor_id][resting.bet_id] = _view(resting)
        if queue is not None:
            self._take(competitor_id, opp_side, odds, bet.matched)
        if bet.unmatched > 0:
            self._rest(bet)
        self.matches.extend(records)
        self._maybe_self_check()
        return bet.bet_id, records

    def cancel_bet(self, bet_id: int, bettor_id: str) -> Money:
        """Remove the unmatched portion of an own bet; returns the amount.

        Returns 0 when nothing was left to cancel (fully matched or already
        cancelled), so callers can tell a no-op from a real cancellation.
        """
        if self.state != OPEN:
            raise MarketClosedError(f"market is {self.state}")
        bet = self.bets.get(bet_id)
        if bet is None or bet.bettor_id != bettor_id:
            raise UnknownBetError(f"no bet {bet_id} for bettor {bettor_id!r}")
        if bet.unmatched == 0:
            return 0
        cancelled = self._retire_unmatched(bet)
        self._maybe_self_check()
        return cancelled

    def _rest(self, bet: Bet) -> None:
        """Queue a bet's unmatched portion at its level and list it as open.

        _rest and _take are the only writers of _totals, so each checks
        the competitor's cached grid row against the level it changed.
        """
        cid, side, odds = bet.competitor_id, bet.side, bet.odds
        levels = self._queues[cid][side]
        totals = self._totals[cid][side]
        if odds in levels:
            levels[odds].append(bet)
            totals[odds] = GridLevel(odds, totals[odds].stake + bet.unmatched)
        else:
            levels[odds] = deque((bet,))
            totals[odds] = GridLevel(odds, bet.unmatched)
        self._open[bet.bettor_id][bet.bet_id] = _view(bet)
        self._touch(cid, side, odds)

    def _take(self, cid: str, side: str, odds: int, amount: Money) -> None:
        """Lower a level's total by amount; drop the level once its queue is empty."""
        levels = self._queues[cid][side]
        totals = self._totals[cid][side]
        if levels[odds]:
            totals[odds] = GridLevel(odds, totals[odds].stake - amount)
        else:
            del levels[odds]
            del totals[odds]
        self._touch(cid, side, odds)

    def _touch(self, cid: str, side: str, odds: int) -> None:
        """Drop cid's cached grid row unless it is sure to be unchanged.

        The row holds the best grid_depth levels of each side.  When a side
        shows all grid_depth of them, a level worse than the last one shown
        can come, go or change its stake without changing what is shown.
        """
        row = self._rows[cid]
        if row is None:
            return
        shown = row.backs if side == BACK else row.lays
        if len(shown) == self.grid_depth:
            last = shown[-1].odds
            if odds < last if side == BACK else odds > last:
                return
        self._rows[cid] = None

    def _retire_unmatched(self, bet: Bet) -> Money:
        amount = bet.unmatched
        # a bet with unmatched > 0 always rests here; remove raises if it does not
        self._queues[bet.competitor_id][bet.side][bet.odds].remove(bet)
        self._take(bet.competitor_id, bet.side, bet.odds, amount)
        del self._open[bet.bettor_id][bet.bet_id]
        bet.unmatched = 0
        keep = escrow(bet.side, bet.matched, bet.odds)
        release = bet.reserved - keep
        self.accounts[bet.bettor_id].release(release)
        bet.reserved = keep
        return amount

    # -- views ------------------------------------------------------------

    def market_grid(self) -> dict[str, GridRow]:
        """Aggregated top-of-book per competitor, grid_depth levels per side.

        Rows are cached; only those _touch dropped since the last call, after
        a change that can show, are rebuilt.
        """
        rows = self._rows
        if None in rows.values():
            for cid, row in rows.items():
                if row is None:
                    rows[cid] = self._grid_row(cid)
        return dict(rows)

    def _grid_row(self, cid: str) -> GridRow:
        backs, lays, depth = self._totals[cid][BACK], self._totals[cid][LAY], self.grid_depth
        return GridRow(
            backs=tuple(map(backs.__getitem__, sorted(backs, reverse=True)[:depth])),
            lays=tuple(map(lays.__getitem__, sorted(lays)[:depth])),
        )

    # -- lifecycle --------------------------------------------------------

    def close_betting(self) -> list[tuple[int, str, Money, Money]]:
        """Close the market, expiring all unmatched portions.

        Returns one (bet_id, bettor_id, expired_amount, released_escrow)
        row per affected bet, in bet id order.
        """
        if self.state != OPEN:
            raise MarketClosedError(f"market is {self.state}")
        self.state = CLOSED
        expired: list[tuple[int, str, Money, Money]] = []
        for bet in self.bets.values():  # ids are inserted in increasing order
            if bet.unmatched > 0:
                before = bet.reserved
                amount = self._retire_unmatched(bet)
                expired.append((bet.bet_id, bet.bettor_id, amount, before - bet.reserved))
        self._maybe_self_check()
        return expired

    def settle(self, winner: str) -> SettlementReport:
        """Pay out every match record against the actual winner.

        Nets each bettor's gross market result, charges commission on
        positive nets, releases every remaining escrow, and freezes the
        book.  Sum of all net deltas plus total commission is exactly 0.
        """
        if self.state == SETTLED:
            raise SettlementError("market already settled")
        if self.state != CLOSED:
            raise SettlementError("close betting before settling")
        if winner not in self._queues:
            raise SettlementError(f"unknown winner {winner!r}")

        gross: dict[str, Money] = {b: 0 for b in self.accounts}
        for rec in self.matches:
            if rec.competitor_id == winner:
                w = back_winnings(rec.amount, rec.odds)
                gross[rec.back_bettor] += w
                gross[rec.lay_bettor] -= w
            else:
                gross[rec.lay_bettor] += rec.amount
                gross[rec.back_bettor] -= rec.amount

        for bet in self.bets.values():
            if bet.reserved > 0:
                self.accounts[bet.bettor_id].release(bet.reserved)
                bet.reserved = 0

        rows = []
        total_commission = 0
        for bettor_id in sorted(self.accounts):
            g = gross[bettor_id]
            fee = commission_due(g, self.commission_rate)
            net = g - fee
            self.accounts[bettor_id].balance += net
            total_commission += fee
            rows.append(SettlementRow(bettor_id, g, fee, net))
        self.state = SETTLED
        return SettlementReport(winner=winner, rows=tuple(rows), total_commission=total_commission)

    # -- integrity --------------------------------------------------------

    def check_no_cross(self) -> None:
        """Assert no competitor has resting backs and lays at the same odds."""
        for cid, sides in self._queues.items():
            crossed = set(sides[BACK]) & set(sides[LAY])
            if crossed:
                raise AssertionError(f"crossed book on {cid!r} at odds {sorted(crossed)}")

    def check_accounts(self) -> None:
        """Assert escrow totals reconcile with per-bet reservations."""
        held: dict[str, Money] = {b: 0 for b in self.accounts}
        for bet in self.bets.values():
            held[bet.bettor_id] += bet.reserved
        for bettor_id, acct in self.accounts.items():
            if acct.balance < 0 or acct.reserved < 0:
                raise AssertionError(f"negative account field for {bettor_id!r}")
            if acct.reserved != held[bettor_id]:
                raise AssertionError(
                    f"escrow mismatch for {bettor_id!r}: "
                    f"account {acct.reserved}, bets {held[bettor_id]}"
                )

    def check_views(self) -> None:
        """Assert level totals, open-bet views and cached grid rows match a recount."""
        for cid, sides in self._queues.items():
            for side, levels in sides.items():
                totals = {o: GridLevel(o, sum(b.unmatched for b in q)) for o, q in levels.items()}
                if self._totals[cid][side] != totals:
                    raise AssertionError(
                        f"level totals on {cid!r} {side}: kept {self._totals[cid][side]}, "
                        f"recount {totals}"
                    )
            row = self._rows[cid]
            if row is not None and row != self._grid_row(cid):
                raise AssertionError(f"stale cached grid row for {cid!r}")
        open_bets: dict[str, list[OpenBet]] = {b: [] for b in self.accounts}
        for bet in self.bets.values():
            if bet.unmatched > 0:
                open_bets[bet.bettor_id].append(_view(bet))
        for bettor_id, views in open_bets.items():
            kept = list(self._open[bettor_id].items())
            recount = [(v.bet_id, v) for v in views]
            if kept != recount:
                raise AssertionError(
                    f"open bets of {bettor_id!r}: kept {kept}, recount {recount}"
                )

    def _maybe_self_check(self) -> None:
        if self.self_check:
            self.check_no_cross()
            self.check_accounts()
            self.check_views()
            self.self_checks_run += 1

    def total_matched(self) -> Money:
        return sum(rec.amount for rec in self.matches)
