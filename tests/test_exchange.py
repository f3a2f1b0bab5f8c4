import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from racemarket.exchange import (
    BACK,
    LADDER,
    LAY,
    MAX_ODDS,
    MIN_ODDS,
    Account,
    EscrowError,
    ExchangeError,
    GridLevel,
    GridRow,
    InsufficientFundsError,
    InvalidOddsError,
    MarketBook,
    MarketClosedError,
    OpenBet,
    SettlementError,
    UnknownBetError,
    back_winnings,
    commission_due,
    escrow,
    ladder_band,
    lay_liability,
    odds_to_decimal,
    on_ladder,
    quantize_odds,
)


# -- odds ladder ----------------------------------------------------------------


def test_ladder_has_350_strictly_increasing_values():
    assert len(LADDER) == 350
    assert LADDER[0] == MIN_ODDS
    assert LADDER[-1] == MAX_ODDS
    assert all(a < b for a, b in zip(LADDER, LADDER[1:]))


def test_ladder_spacing_by_band():
    # (inclusive lo, exclusive hi, tick) in hundredths
    bands = [
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
    ]
    expected = [v for lo, hi, step in bands for v in range(lo, hi, step)] + [100_000]
    assert list(LADDER) == expected


def test_quantize_worked_examples():
    assert quantize_odds(1.01) == 101
    assert quantize_odds(1.014) == 101
    assert quantize_odds(1.015) == 102  # midpoint rounds up
    assert quantize_odds(2.01) == 202  # midpoint of the 0.02 band
    assert quantize_odds(2.016) == 202
    assert quantize_odds(3.07) == 305  # nearer 3.05 than 3.10
    assert quantize_odds(3.075) == 310
    assert quantize_odds(7.0) == 700
    assert quantize_odds(11.2) == 1100
    assert quantize_odds(1.004) == 101  # clamp up
    assert quantize_odds(2500.0) == 100_000  # clamp down
    assert quantize_odds(999.99) == 100_000
    assert quantize_odds(1e308) == 100_000  # no overflow scaling huge odds
    assert quantize_odds(float("inf")) == 100_000


def test_quantize_rejects_non_positive_margin():
    with pytest.raises(InvalidOddsError):
        quantize_odds(1.0)
    with pytest.raises(InvalidOddsError):
        quantize_odds(0.5)
    with pytest.raises(InvalidOddsError):
        quantize_odds(float("nan"))


def test_quantize_keeps_every_ladder_value_and_midpoint():
    assert [quantize_odds(odds_to_decimal(v)) for v in LADDER] == list(LADDER)
    for lo, hi in zip(LADDER, LADDER[1:]):
        assert quantize_odds((lo + hi) / 200) == hi  # midpoint rounds up


@given(st.floats(min_value=1.0001, max_value=5000.0, allow_nan=False))
def test_quantize_lands_on_ladder_and_is_idempotent(raw):
    q = quantize_odds(raw)
    assert on_ladder(q)
    assert quantize_odds(odds_to_decimal(q)) == q


@given(st.floats(min_value=1.02, max_value=999.0))
def test_quantize_picks_a_nearest_neighbour(raw):
    q = quantize_odds(raw)
    err = abs(q - raw * 100)
    assert all(abs(v - raw * 100) >= err - 1e-6 for v in LADDER)


def test_ladder_band_selection():
    band = ladder_band(1.5, 20.0)
    assert band[0] == 150
    assert band[-1] == 2000
    assert all(on_ladder(v) for v in band)
    assert ladder_band(3.0, 3.1) == (300, 305, 310)


# -- money arithmetic -----------------------------------------------------------


def test_payout_worked_examples():
    # $1 back at 11.0 wins $10; total return $11
    assert back_winnings(100, 1100) == 1000
    # $5 back at 1.2 wins $1; total return $6
    assert back_winnings(500, 120) == 100
    # $5 back at 6.7 wins $28.50
    assert back_winnings(500, 670) == 2850
    assert lay_liability(500, 670) == 2850
    # fractional cents: floor for the backer, ceiling for the layer
    assert back_winnings(333, 150) == 166
    assert lay_liability(333, 150) == 167


@given(st.integers(min_value=1, max_value=10**7), st.sampled_from(LADDER))
def test_liability_always_covers_winnings(amount, odds):
    assert back_winnings(amount, odds) <= lay_liability(amount, odds)
    assert lay_liability(amount, odds) - back_winnings(amount, odds) <= 1
    assert back_winnings(amount, odds) >= 0
    assert lay_liability(amount, odds) >= 1  # odds > 1 means real exposure


def test_escrow_holds_a_back_stake_and_a_lay_liability():
    assert escrow(BACK, 333, 150) == 333
    assert escrow(LAY, 333, 150) == 167  # 166.5 rounds up to the layer's cost
    assert escrow(LAY, 500, 670) == lay_liability(500, 670) == 2850


def test_commission_rounds_half_up():
    assert commission_due(2850, 0.05) == 143  # 142.5 rounds up
    assert commission_due(1000, 0.05) == 50
    assert commission_due(1009, 0.05) == 50  # 50.45 rounds down
    assert commission_due(0, 0.05) == 0
    assert commission_due(-500, 0.05) == 0  # losses pay nothing
    assert commission_due(123, 0.0) == 0


# -- book mechanics ---------------------------------------------------------


def make_book(**kwargs) -> MarketBook:
    book = MarketBook(("c1", "c2", "c3"), **kwargs)
    for name in ("alice", "bob", "carol"):
        book.open_account(name, 1_000_000)
    return book


def test_account_rules():
    book = make_book()
    with pytest.raises(ExchangeError):
        book.open_account("alice", 10)  # duplicate
    with pytest.raises(ExchangeError):
        book.open_account("dave", -1)
    with pytest.raises(ExchangeError, match="must be an integer"):
        book.open_account("erin", 10.5)  # money is integer cents
    with pytest.raises(ExchangeError, match="must be an integer"):
        book.open_account("frank", True)
    assert set(book.accounts) == {"alice", "bob", "carol"}
    assert book.free_balance("alice") == 1_000_000


def test_release_outside_escrow_raises():
    # a real check, not an assert: it must hold under python -O too
    acct = Account("alice", 900, reserved=100)
    with pytest.raises(EscrowError):
        acct.release(-1)
    with pytest.raises(EscrowError):
        acct.release(101)
    assert (acct.balance, acct.reserved) == (900, 100)
    acct.release(100)
    assert (acct.balance, acct.reserved) == (1000, 0)


def test_submit_validation_order_and_rollback():
    book = make_book()
    with pytest.raises(ExchangeError):
        book.submit_bet("nobody", "c1", BACK, 200, 100)
    with pytest.raises(ExchangeError):
        book.submit_bet("alice", "c9", BACK, 200, 100)
    with pytest.raises(ExchangeError):
        book.submit_bet("alice", "c1", "hedge", 200, 100)
    with pytest.raises(InvalidOddsError):
        book.submit_bet("alice", "c1", BACK, 201, 100)  # off-ladder
    with pytest.raises(ExchangeError):
        book.submit_bet("alice", "c1", BACK, 200, 0)
    with pytest.raises(ExchangeError):
        book.submit_bet("alice", "c1", BACK, 200, 10.5)
    with pytest.raises(ExchangeError, match="positive integer, got True"):
        book.submit_bet("alice", "c1", BACK, 200, True)
    with pytest.raises(InsufficientFundsError):
        book.submit_bet("alice", "c1", BACK, 200, 2_000_000)
    # nothing stuck in escrow after the failures
    assert book.free_balance("alice") == 1_000_000
    assert book.accounts["alice"].reserved == 0
    assert not book.bets


@pytest.mark.parametrize("odds", [250.0, True, 2.5])
def test_odds_that_are_not_ints_are_refused(odds):
    # 250.0 equals a ladder value and True equals 1; either would put float
    # or bool arithmetic into the integer-cent accounts
    book = make_book()
    resting, _ = book.submit_bet("alice", "c1", BACK, 250, 100)
    before = {b: (a.balance, a.reserved) for b, a in book.accounts.items()}
    with pytest.raises(InvalidOddsError, match="odds must be an integer, got"):
        book.submit_bet("bob", "c1", LAY, odds, 101)
    assert {b: (a.balance, a.reserved) for b, a in book.accounts.items()} == before
    assert all(type(v) is int for pair in before.values() for v in pair)
    assert list(book.bets) == [resting]
    assert book.bets_of("bob") == []
    assert book.bets[resting].unmatched == 100


def test_escrow_amounts():
    book = make_book()
    book.submit_bet("alice", "c1", BACK, 500, 1000)
    assert book.accounts["alice"].reserved == 1000  # backer risks the stake
    book.submit_bet("bob", "c2", LAY, 500, 1000)
    assert book.accounts["bob"].reserved == 4000  # layer risks stake * (odds-1)


def test_price_time_fifo_matching():
    book = make_book()
    first, _ = book.submit_bet("alice", "c1", BACK, 300, 500)
    second, _ = book.submit_bet("bob", "c1", BACK, 300, 500)
    _, records = book.submit_bet("carol", "c1", LAY, 300, 700)
    assert [r.back_bet_id for r in records] == [first, second]
    assert [r.amount for r in records] == [500, 200]
    assert book.bets[first].matched == 500
    assert book.bets[second].matched == 200
    assert book.bets[second].unmatched == 300
    assert book.total_matched() == 700


def test_matching_requires_exact_odds():
    book = make_book()
    book.submit_bet("alice", "c1", BACK, 310, 500)
    _, records = book.submit_bet("bob", "c1", LAY, 300, 500)
    assert records == []  # better-priced back does not match a 3.00 lay
    grid = book.market_grid()
    assert grid["c1"].backs[0].odds == 310
    assert grid["c1"].lays[0].odds == 300


def test_no_self_match_rule_is_absent_by_design():
    # an agent population can cross itself; the book just matches
    book = make_book()
    book.submit_bet("alice", "c1", BACK, 300, 500)
    _, records = book.submit_bet("alice", "c1", LAY, 300, 500)
    assert len(records) == 1


def test_grid_ordering_and_depth():
    for depth in (1, 3, 5):
        book = make_book(grid_depth=depth)
        for odds in (320, 360, 300, 340):  # out of order, so the grid must sort them
            book.submit_bet("alice", "c1", BACK, odds, 100)
        for odds in (420, 380, 440, 400):
            book.submit_bet("bob", "c1", LAY, odds, 100)
        grid = book.market_grid()
        assert [l.odds for l in grid["c1"].backs] == [360, 340, 320, 300][:depth]
        assert [l.odds for l in grid["c1"].lays] == [380, 400, 420, 440][:depth]
        assert grid["c2"].backs == () and grid["c2"].lays == ()
        assert grid["c1"].backs[0].odds == 360
        assert grid["c1"].lays[0].odds == 380


def test_grid_depth_below_one_is_rejected():
    with pytest.raises(ExchangeError, match="grid_depth"):
        MarketBook(("c1", "c2"), grid_depth=0)


@pytest.mark.parametrize("ids", [("c1", "c2", "c1"), ()])
def test_book_refuses_duplicate_or_no_competitor_ids(ids):
    with pytest.raises(ExchangeError, match="competitor ids must be unique and non-empty"):
        MarketBook(ids)


def test_grid_aggregates_stakes_at_a_level():
    book = make_book()
    book.submit_bet("alice", "c1", BACK, 300, 100)
    book.submit_bet("bob", "c1", BACK, 300, 250)
    grid = book.market_grid()
    assert grid["c1"].backs[0].stake == 350


def test_cancel_releases_escrow():
    book = make_book()
    bet_id, _ = book.submit_bet("alice", "c1", BACK, 300, 500)
    assert book.cancel_bet(bet_id, "alice") == 500
    assert book.free_balance("alice") == 1_000_000
    assert book.cancel_bet(bet_id, "alice") == 0  # idempotent no-op
    with pytest.raises(UnknownBetError):
        book.cancel_bet(bet_id, "bob")
    with pytest.raises(UnknownBetError):
        book.cancel_bet(999, "alice")


def test_cancel_keeps_matched_portion():
    book = make_book()
    bet_id, _ = book.submit_bet("alice", "c1", BACK, 300, 500)
    book.submit_bet("bob", "c1", LAY, 300, 200)
    assert book.cancel_bet(bet_id, "alice") == 300
    bet = book.bets[bet_id]
    assert bet.matched == 200
    assert bet.unmatched == 0
    assert book.accounts["alice"].reserved == 200


def test_partial_cancel_of_lay_releases_ceiling_escrow():
    book = make_book()
    bet_id, _ = book.submit_bet("alice", "c1", LAY, 150, 333)  # liability 167
    book.submit_bet("bob", "c1", BACK, 150, 100)  # 50 liability stays uncovered...
    cancelled = book.cancel_bet(bet_id, "alice")
    assert cancelled == 233
    assert book.accounts["alice"].reserved == lay_liability(100, 150)


def test_cancel_raises_when_a_resting_bet_is_missing_from_its_queue():
    book = make_book()
    bet_id, _ = book.submit_bet("alice", "c1", BACK, 300, 500)
    book._queues["c1"][BACK][300].remove(book.bets[bet_id])  # break the book by hand
    with pytest.raises(ValueError):
        book.cancel_bet(bet_id, "alice")
    assert book.accounts["alice"].reserved == 500


def test_close_expires_unmatched_and_blocks_orders():
    book = make_book()
    a, _ = book.submit_bet("alice", "c1", BACK, 300, 500)
    book.submit_bet("bob", "c1", LAY, 300, 200)
    c, _ = book.submit_bet("carol", "c2", LAY, 400, 100)
    expired = book.close_betting()
    assert [(e[0], e[2]) for e in expired] == [(a, 300), (c, 100)]
    assert book.state == "closed"
    # escrow for matched portions stays, the rest came back
    assert book.accounts["alice"].reserved == 200
    assert book.accounts["carol"].reserved == 0
    with pytest.raises(MarketClosedError):
        book.submit_bet("alice", "c1", BACK, 300, 100)
    with pytest.raises(MarketClosedError):
        book.cancel_bet(a, "alice")
    with pytest.raises(MarketClosedError):
        book.close_betting()


def test_settle_requires_close_and_known_winner():
    book = make_book()
    with pytest.raises(SettlementError):
        book.settle("c1")
    book.close_betting()
    with pytest.raises(SettlementError):
        book.settle("c9")
    book.settle("c1")
    with pytest.raises(SettlementError):
        book.settle("c1")


def test_settlement_worked_example():
    book = make_book()
    book.submit_bet("alice", "c1", BACK, 450, 500)
    book.submit_bet("bob", "c1", LAY, 450, 500)
    book.close_betting()
    report = book.settle("c1")
    by = {r.bettor_id: r for r in report.rows}
    assert by["alice"].gross == 1750
    assert by["alice"].commission == 88  # 87.5 rounds up
    assert by["alice"].net == 1662
    assert by["bob"].net == -1750
    assert report.total_commission == 88
    assert book.free_balance("alice") == 1_001_662
    assert book.free_balance("bob") == 998_250
    assert book.accounts["alice"].reserved == 0
    assert book.accounts["bob"].reserved == 0


def test_settlement_loser_side():
    book = make_book()
    book.submit_bet("alice", "c2", BACK, 450, 500)
    book.submit_bet("bob", "c2", LAY, 450, 500)
    book.close_betting()
    report = book.settle("c1")  # c2 lost: layer collects the stake
    by = {r.bettor_id: r for r in report.rows}
    assert by["bob"].gross == 500
    assert by["bob"].commission == 25
    assert by["alice"].net == -500
    assert sum(r.net for r in report.rows) + report.total_commission == 0


def test_settlement_nets_across_markets_before_commission():
    book = make_book()
    # alice wins 1000 on c1 and loses 600 on c2: commission on the 400 net
    book.submit_bet("alice", "c1", BACK, 300, 500)
    book.submit_bet("bob", "c1", LAY, 300, 500)
    book.submit_bet("alice", "c2", BACK, 400, 600)
    book.submit_bet("carol", "c2", LAY, 400, 600)
    book.close_betting()
    report = book.settle("c1")
    by = {r.bettor_id: r for r in report.rows}
    assert by["alice"].gross == 400
    assert by["alice"].commission == commission_due(400, 0.05)
    assert by["carol"].gross == 600
    assert sum(r.net for r in report.rows) + report.total_commission == 0


def test_conservation_and_self_check_counter():
    book = make_book()
    book.self_check = True
    total0 = sum(a.balance + a.reserved for a in book.accounts.values())
    book.submit_bet("alice", "c1", BACK, 300, 500)
    book.submit_bet("bob", "c1", LAY, 300, 700)
    book.submit_bet("carol", "c2", LAY, 400, 300)
    bid, _ = book.submit_bet("alice", "c2", BACK, 400, 100)
    book.cancel_bet(bid, "alice")
    assert sum(a.balance + a.reserved for a in book.accounts.values()) == total0
    book.close_betting()
    assert sum(a.balance + a.reserved for a in book.accounts.values()) == total0
    report = book.settle("c2")
    total1 = sum(a.balance + a.reserved for a in book.accounts.values())
    assert total0 - total1 == report.total_commission
    assert book.self_checks_run >= 5


def test_no_cross_check_fires_on_a_forced_cross():
    book = make_book()
    book.submit_bet("alice", "c1", BACK, 300, 100)
    # sneak a lay into the same level behind the book's back
    from collections import deque

    from racemarket.exchange import Bet

    fake = Bet(
        bet_id=99,
        bettor_id="bob",
        competitor_id="c1",
        side=LAY,
        odds=300,
        stake=100,
        arrival_time=0.0,
        unmatched=100,
    )
    book._queues["c1"][LAY][300] = deque([fake])
    with pytest.raises(AssertionError):
        book.check_no_cross()


def test_self_check_audits_the_cached_views():
    book = make_book()
    book.self_check = True
    book.submit_bet("alice", "c1", BACK, 300, 100)
    book.submit_bet("bob", "c1", BACK, 300, 250)
    book.check_views()
    level = book._totals["c1"][BACK][300]
    book._totals["c1"][BACK][300] = GridLevel(level.odds, level.stake + 1)  # corrupt by hand
    with pytest.raises(AssertionError, match="level totals"):
        book.check_views()
    with pytest.raises(AssertionError):
        book.submit_bet("carol", "c2", LAY, 400, 100)  # the next mutation's self-check

    # an open-bet view is checked field by field, not only by its id
    book = make_book()
    a, _ = book.submit_bet("alice", "c1", BACK, 300, 500)
    book.submit_bet("bob", "c1", LAY, 300, 200)
    book.check_views()
    book._open["alice"][a] = book._open["alice"][a]._replace(unmatched=500)  # as before the fill
    with pytest.raises(AssertionError, match="open bets of 'alice'"):
        book.check_views()

    # so is a cached grid row
    book = make_book()
    book.submit_bet("alice", "c1", BACK, 300, 100)
    row = book.market_grid()["c1"]
    book.check_views()
    book._rows["c1"] = row._replace(backs=())
    with pytest.raises(AssertionError, match="stale cached grid row for 'c1'"):
        book.check_views()

    # and each cached side of a row
    book = make_book()
    book.submit_bet("alice", "c1", BACK, 300, 100)
    book.market_grid()
    book._shown["c1"][LAY] = (GridLevel(300, 100),)
    with pytest.raises(AssertionError, match="stale cached grid lays for 'c1'"):
        book.check_views()


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("balance", -1, "negative account field for 'alice'"),
        ("reserved", -1, "negative account field for 'alice'"),
        ("reserved", 101, "escrow mismatch for 'alice': account 101, bets 100"),
        ("reserved", 99, "escrow mismatch for 'alice': account 99, bets 100"),
    ],
)
def test_self_check_audits_the_accounts(field, value, message):
    book = make_book()
    book.submit_bet("alice", "c1", BACK, 300, 100)  # reserves 100
    book.check_accounts()
    setattr(book.accounts["alice"], field, value)  # corrupt by hand
    with pytest.raises(AssertionError, match=message):
        book.check_accounts()


def test_open_bets_follow_partial_fills_by_other_bettors():
    book = make_book()
    book.self_check = True
    a, _ = book.submit_bet("alice", "c1", BACK, 300, 500, time=2.0)
    c, _ = book.submit_bet("alice", "c2", LAY, 400, 100, time=3.0)
    kept_c = OpenBet(c, "c2", LAY, 400, 100, 3.0)
    assert book.open_bets("alice") == (OpenBet(a, "c1", BACK, 300, 500, 2.0), kept_c)
    book.submit_bet("bob", "c1", LAY, 300, 200, time=4.0)  # part-fills a
    assert book.open_bets("alice") == (OpenBet(a, "c1", BACK, 300, 300, 2.0), kept_c)
    assert book.open_bets("bob") == ()  # filled as it arrived
    book.submit_bet("carol", "c1", LAY, 300, 100, time=5.0)  # part-fills a again
    book.submit_bet("carol", "c2", BACK, 400, 100, time=5.0)  # fills c
    assert book.open_bets("alice") == (OpenBet(a, "c1", BACK, 300, 200, 2.0),)
    book.cancel_bet(a, "alice")
    assert book.open_bets("alice") == ()


def test_bets_of_lists_open_bets_in_arrival_order():
    book = make_book()
    a, _ = book.submit_bet("alice", "c1", BACK, 300, 500)
    b, _ = book.submit_bet("alice", "c2", LAY, 400, 100)
    c, _ = book.submit_bet("alice", "c1", BACK, 320, 100)
    book.submit_bet("bob", "c2", BACK, 400, 100)  # fills b
    book.submit_bet("bob", "c1", LAY, 300, 200)  # part-fills a
    assert [bet.bet_id for bet in book.bets_of("alice")] == [a, c]
    book.cancel_bet(c, "alice")
    assert [bet.bet_id for bet in book.bets_of("alice")] == [a]
    assert book.bets_of("nobody") == []


def test_market_grid_rebuilds_only_changed_rows():
    for depth in (1, 2):
        book = make_book(grid_depth=depth)
        for odds in (300, 320, 340):
            book.submit_bet("alice", "c1", BACK, odds, 100)
        first = book.market_grid()
        assert [l.odds for l in first["c1"].backs] == [340, 320][:depth]
        again = book.market_grid()
        assert again is not first  # a fresh dict each call
        assert again["c1"] is first["c1"] and again["c2"] is first["c2"]  # rows are reused
        book.submit_bet("bob", "c1", LAY, 340, 100)  # takes out the best back
        second = book.market_grid()
        assert [l.odds for l in second["c1"].backs] == [320, 300][:depth]
        assert second["c2"] is first["c2"]
        book.submit_bet("carol", "c2", LAY, 500, 100)
        third = book.market_grid()
        assert third["c1"] is second["c1"]
        assert third["c2"] is not second["c2"] and [l.odds for l in third["c2"].lays] == [500]
        book.close_betting()
        assert book.market_grid()["c1"].backs == ()


def test_market_grid_rebuilds_only_the_changed_side():
    book = make_book()
    book.self_check = True
    book.submit_bet("alice", "c1", BACK, 300, 100)
    book.submit_bet("alice", "c1", LAY, 200, 100)
    first = book.market_grid()["c1"]
    book.submit_bet("bob", "c1", LAY, 210, 100)  # a new best lay
    second = book.market_grid()["c1"]
    assert second is not first and second.backs is first.backs
    assert [l.odds for l in second.lays] == [200, 210]
    book.submit_bet("bob", "c1", BACK, 320, 100)  # a new best back
    third = book.market_grid()["c1"]
    assert third.lays is second.lays and [l.odds for l in third.backs] == [320, 300]
    book.submit_bet("carol", "c1", LAY, 320, 40)  # part-fills the best back
    fourth = book.market_grid()["c1"]
    assert fourth.lays is second.lays and fourth.backs == (GridLevel(320, 60), GridLevel(300, 100))
    book.submit_bet("carol", "c1", BACK, 200, 100)  # fills the best lay
    assert book.market_grid()["c1"] == GridRow(fourth.backs, (GridLevel(210, 100),))
    assert book.market_grid()["c1"].backs is fourth.backs


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["c1", "c2"]), st.sampled_from([BACK, LAY]), st.sampled_from([200, 300, 400]), st.integers(1, 500)), max_size=30), st.sampled_from(["c1", "c2"]))
def test_random_flow_conserves_money(flow, winner):
    book = MarketBook(("c1", "c2"))
    book.open_account("u1", 10_000)
    book.open_account("u2", 10_000)
    total0 = 20_000
    for i, (cid, side, odds, stake) in enumerate(flow):
        who = "u1" if i % 2 == 0 else "u2"
        try:
            book.submit_bet(who, cid, side, odds, stake)
        except InsufficientFundsError:
            pass
        book.check_no_cross()
        book.check_accounts()
    book.close_betting()
    report = book.settle(winner)
    total1 = sum(a.balance + a.reserved for a in book.accounts.values())
    assert all(a.reserved == 0 for a in book.accounts.values())
    assert total0 - total1 == report.total_commission
    assert sum(r.net for r in report.rows) + report.total_commission == 0
