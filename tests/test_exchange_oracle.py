"""Equivalence of the order book against a brute-force reference.

ScanBook re-implements the matching rules with naive list scans and its own
integer arithmetic: exact-odds matching, oldest resting bet first, floored
backer winnings, ceiling lay escrow, half-up commission on positive nets.
Randomized op streams must produce bit-identical match records, resting
queues, cancel returns, balances, and settlement rows on both books.
"""

import random

from racemarket.exchange import BACK, LAY, MarketBook


class ScanBook:
    """Reference book: plain lists, no indexes, scan everything."""

    def __init__(self, competitor_ids, commission_rate=0.05):
        self.cids = tuple(competitor_ids)
        self.rate = commission_rate
        self.bets = []  # dict per bet; bet id == list position + 1
        self.matches = []  # (cid, odds, amount, back_id, lay_id, back_bettor, lay_bettor)
        self.balances = {}

    @staticmethod
    def winnings(amount, odds):
        return amount * (odds - 100) // 100

    @staticmethod
    def liability(amount, odds):
        return -((-amount * (odds - 100)) // 100)

    def need(self, side, amount, odds):
        return amount if side == BACK else self.liability(amount, odds)

    def submit(self, bettor, cid, side, odds, stake, time=0.0):
        self.balances[bettor] -= self.need(side, stake, odds)
        bet = {
            "id": len(self.bets) + 1,
            "time": time,
            "bettor": bettor,
            "cid": cid,
            "side": side,
            "odds": odds,
            "stake": stake,
            "matched": 0,
            "unmatched": stake,
            "retired": False,
        }
        records = []
        opp = LAY if side == BACK else BACK
        while bet["unmatched"] > 0:
            resting = [
                b
                for b in self.bets
                if b["cid"] == cid and b["side"] == opp and b["odds"] == odds and b["unmatched"] > 0
            ]
            if not resting:
                break
            oldest = min(resting, key=lambda b: b["id"])
            amount = min(bet["unmatched"], oldest["unmatched"])
            for side_bet in (bet, oldest):
                side_bet["matched"] += amount
                side_bet["unmatched"] -= amount
            back, lay = (bet, oldest) if side == BACK else (oldest, bet)
            rec = (cid, odds, amount, back["id"], lay["id"], back["bettor"], lay["bettor"])
            records.append(rec)
            self.matches.append(rec)
        self.bets.append(bet)
        return bet["id"], records

    def _retire(self, bet):
        # escrow above what the matched portion needs comes back
        refund = self.need(bet["side"], bet["stake"], bet["odds"]) - self.need(
            bet["side"], bet["matched"], bet["odds"]
        )
        self.balances[bet["bettor"]] += refund
        bet["unmatched"] = 0
        bet["retired"] = True
        return refund

    def cancel(self, bet_id, bettor):
        bet = self.bets[bet_id - 1]
        assert bet["bettor"] == bettor
        if bet["unmatched"] == 0:
            return 0
        amount = bet["unmatched"]
        self._retire(bet)
        return amount

    def close(self):
        rows = []
        for bet in self.bets:  # list order == bet id order
            if bet["unmatched"] > 0:
                amount = bet["unmatched"]
                refund = self._retire(bet)
                rows.append((bet["id"], bet["bettor"], amount, refund))
        return rows

    def settle(self, winner):
        gross = {b: 0 for b in self.balances}
        for cid, odds, amount, _back_id, _lay_id, back_bettor, lay_bettor in self.matches:
            if cid == winner:
                w = self.winnings(amount, odds)
                gross[back_bettor] += w
                gross[lay_bettor] -= w
            else:
                gross[lay_bettor] += amount
                gross[back_bettor] -= amount
        # after close every bet holds exactly the matched portion's escrow
        for bet in self.bets:
            self.balances[bet["bettor"]] += self.need(bet["side"], bet["matched"], bet["odds"])
        rows = []
        total_fee = 0
        for bettor in sorted(self.balances):
            g = gross[bettor]
            fee = int(g * self.rate + 0.5) if g > 0 else 0
            self.balances[bettor] += g - fee
            total_fee += fee
            rows.append((bettor, g, fee, g - fee))
        return rows, total_fee

    def queue_snapshot(self):
        snap = {}
        for cid in self.cids:
            snap[cid] = {}
            for side in (BACK, LAY):
                levels = {}
                for bet in self.bets:
                    if bet["cid"] == cid and bet["side"] == side and bet["unmatched"] > 0:
                        levels.setdefault(bet["odds"], []).append((bet["id"], bet["unmatched"]))
                snap[cid][side] = {odds: levels[odds] for odds in sorted(levels)}
        return snap

    def grid(self, depth):
        """Per competitor: the top depth (odds, stake) levels of backs (highest first) and lays."""
        totals = {(cid, side): {} for cid in self.cids for side in (BACK, LAY)}
        for bet in self.bets:
            if bet["unmatched"] > 0:
                level = totals[bet["cid"], bet["side"]]
                level[bet["odds"]] = level.get(bet["odds"], 0) + bet["unmatched"]
        return {
            cid: (
                sorted(totals[cid, BACK].items(), reverse=True)[:depth],
                sorted(totals[cid, LAY].items())[:depth],
            )
            for cid in self.cids
        }

    def open_bets(self, bettor):
        """(id, cid, side, odds, unmatched, time) of each open bet, oldest first."""
        return [
            (b["id"], b["cid"], b["side"], b["odds"], b["unmatched"], b["time"])
            for b in self.bets
            if b["bettor"] == bettor and b["unmatched"] > 0
        ]


def queue_snapshot(book):
    """A MarketBook's resting queues in the form of ScanBook.queue_snapshot."""
    return {
        cid: {
            side: {odds: [(b.bet_id, b.unmatched) for b in levels[odds]] for odds in sorted(levels)}
            for side, levels in book._queues[cid].items()
        }
        for cid in book.competitor_ids
    }


def grid_levels(grid):
    return {
        cid: ([(l.odds, l.stake) for l in row.backs], [(l.odds, l.stake) for l in row.lays])
        for cid, row in grid.items()
    }


BETTORS = ("u1", "u2", "u3")
ODDS_POOL = (150, 200, 300, 450)
AMPLE = 10**12  # funds never bind; matching is the subject here


def drive_pair(
    seed: int, n_ops: int, depth: int, check_every: int = 25, view_every: int = 1
) -> int:
    """Run one random op stream through both books and compare everything.

    The real book shows depth levels per side.  Its read views (market_grid,
    bets_of, open_bets) are compared every view_every ops, the resting queues
    and balances every check_every ops.
    """
    rng = random.Random(seed)
    cids = ("c1", "c2")
    real = MarketBook(cids, grid_depth=depth)
    ref = ScanBook(cids)
    for b in BETTORS:
        real.open_account(b, AMPLE)
        ref.balances[b] = AMPLE
    live = []  # (bet_id, bettor)
    for op in range(n_ops):
        if live and rng.random() < 0.3:
            bet_id, bettor = live[rng.randrange(len(live))]
            got_real = real.cancel_bet(bet_id, bettor)
            got_ref = ref.cancel(bet_id, bettor)
            assert got_real == got_ref, f"op {op}: cancel returned {got_real} vs {got_ref}"
        else:
            bettor = rng.choice(BETTORS)
            cid = rng.choice(cids)
            side = rng.choice((BACK, LAY))
            odds = rng.choice(ODDS_POOL)
            stake = rng.randint(1, 700)
            time = float(op)
            id_real, recs_real = real.submit_bet(bettor, cid, side, odds, stake, time)
            id_ref, recs_ref = ref.submit(bettor, cid, side, odds, stake, time)
            assert id_real == id_ref
            got = [
                (r.competitor_id, r.odds, r.amount, r.back_bet_id, r.lay_bet_id, r.back_bettor, r.lay_bettor)
                for r in recs_real
            ]
            assert got == recs_ref, f"op {op}: match records diverged"
            live.append((id_real, bettor))
        if op % view_every == 0:
            got_grid = grid_levels(real.market_grid())
            assert got_grid == ref.grid(depth), f"op {op}: grid diverged"
            for b in BETTORS:
                want = ref.open_bets(b)
                got_open = [bet.bet_id for bet in real.bets_of(b)]
                assert got_open == [w[0] for w in want], f"op {op}: open bets of {b} diverged"
                assert real.open_bets(b) == tuple(want), f"op {op}: open-bet views of {b} diverged"
        if op % check_every == 0:
            assert queue_snapshot(real) == ref.queue_snapshot(), f"op {op}: book state diverged"
            free = {b: real.free_balance(b) for b in BETTORS}
            assert free == ref.balances, f"op {op}: balances diverged"
    assert queue_snapshot(real) == ref.queue_snapshot()

    real_close = [(e[0], e[1], e[2], e[3]) for e in real.close_betting()]
    assert real_close == ref.close()

    winner = rng.choice(cids)
    report = real.settle(winner)
    ref_rows, ref_fee = ref.settle(winner)
    assert [(r.bettor_id, r.gross, r.commission, r.net) for r in report.rows] == ref_rows
    assert report.total_commission == ref_fee
    assert {b: real.free_balance(b) for b in BETTORS} == ref.balances
    return real.total_matched()


def test_reference_equivalence_randomized():
    matched_total = 0
    for seed in range(20):
        matched_total += drive_pair(seed, 200, depth=1 + seed % 4)
    assert matched_total > 0  # streams actually exercised the matcher


def test_driver_reaches_partial_fills_and_multi_record_matches():
    rng = random.Random(0)
    book = MarketBook(("c1", "c2"))
    for b in BETTORS:
        book.open_account(b, AMPLE)
    multi = 0
    partial = 0
    for _ in range(400):
        _, recs = book.submit_bet(
            rng.choice(BETTORS),
            rng.choice(("c1", "c2")),
            rng.choice((BACK, LAY)),
            rng.choice(ODDS_POOL),
            rng.randint(1, 700),
        )
        if len(recs) > 1:
            multi += 1
        bet = book.bets[max(book.bets)]
        if 0 < bet.matched < bet.stake:
            partial += 1
    assert multi > 0
    assert partial > 0
