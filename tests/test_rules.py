"""Rule model: name checks, grammar, matching, and the priority merge.

The merge and decide checks compare against independent oracles written
before the implementations: a scan-all-candidates matcher and a
partition-by-match-key merge.
"""

import itertools
import random

import pytest

from dacs.rules import (
    Block,
    Destination,
    DuplicateMatchKey,
    MatchKey,
    Pass,
    PriorityPolicy,
    Rewrite,
    Rule,
    RuleSet,
    RuleSyntaxError,
    decide,
    format_rule,
    merge_rules,
    parse_rule,
    user_name_violations,
)

# --- independent oracles -------------------------------------------------


def oracle_decide(rules, dst):
    """Collect every matching rule, then apply exact-over-wildcard by hand."""
    exact = [r for r in rules if r.match.host == dst.host and r.match.port == dst.port]
    wild = [r for r in rules if r.match.host == "*" and r.match.port == dst.port]
    if exact:
        assert len(exact) == 1
        return exact[0].action
    if wild:
        assert len(wild) == 1
        return wild[0].action
    return Pass()


def oracle_merge(user_rules, client_rules, policy):
    """Partition by match key, pick the survivor per partition, then lay the
    partitions out in the documented order (user keys first, client-only
    keys after, each in input order)."""
    partitions = {}
    for entry in user_rules:
        partitions.setdefault(entry.match, {})["user"] = entry.action
    for entry in client_rules:
        partitions.setdefault(entry.match, {})["client"] = entry.action
    ordered_keys = [e.match for e in user_rules]
    ordered_keys += [e.match for e in client_rules if e.match not in set(ordered_keys)]
    out = []
    for key in ordered_keys:
        sides = partitions[key]
        if len(sides) == 1:
            action = next(iter(sides.values()))
        elif sides["user"] == sides["client"]:
            action = sides["user"]
        else:
            action = sides["user"] if policy is PriorityPolicy.USER else sides["client"]
        out.append(Rule(key, action))
    return tuple(out)


# --- names -------------------------------------------------------------------


@pytest.mark.parametrize(
    "name, problem",
    [
        ("", "empty user name"),
        ("a b", "whitespace in user name"),
        ("a|b", "'|' in user name"),
        ("a=b", "'=' in user name"),
    ],
)
def test_user_name_violations_name_the_problem(name, problem):
    assert user_name_violations("userA") == []
    assert problem in user_name_violations(name)


# --- grammar -------------------------------------------------------------


@pytest.mark.parametrize(
    "line",
    [
        "rewrite|wwwserver:80|192.168.1.1:3000",
        "rewrite|*:25|10.0.0.9:25",
        "block|*:25",
        "block|mail-host:143",
        "rewrite|svc:9000|localhost:15000",
    ],
)
def test_grammar_round_trip(line):
    assert format_rule(parse_rule(line)) == line


@pytest.mark.parametrize(
    "line",
    [
        "",
        "deny|h:80",
        "rewrite|h:80",
        "rewrite|h:80|10.0.0.1:80|extra",
        "block|h:80|10.0.0.1:80",
        "block|h",
        "block|h:0",
        "block|h:65536",
        "block|h:007",
        "block|h:+80",
        "block| h:80",
        "rewrite|h:80|hostname:3000",
        "rewrite|*:80|*:3000",
        "block|:80",
    ],
)
def test_grammar_rejects(line):
    with pytest.raises(RuleSyntaxError):
        parse_rule(line)


def test_rule_to_text_to_rule_identity():
    rng = random.Random(7)
    hosts = ["wwwserver", "mail-host", "10.1.2.3", "*"]
    for _ in range(200):
        match = MatchKey(rng.choice(hosts), rng.randrange(1, 65536))
        if rng.random() < 0.5:
            action = Block()
        else:
            action = Rewrite(Destination(rng.choice(["127.0.0.1", "10.0.0.9", "localhost"]),
                                         rng.randrange(1, 65536)))
        rule = Rule(match, action)
        assert parse_rule(format_rule(rule)) == rule


# --- decide --------------------------------------------------------------


def test_decide_empty_set_passes():
    assert decide(RuleSet(0, ()), Destination("anything", 80)) == Pass()


def test_decide_figure11_rewrite():
    rules = RuleSet(1, (Rule(MatchKey("wwwserver", 80), Rewrite(Destination("192.168.1.1", 3001))),))
    got = decide(rules, Destination("wwwserver", 80))
    assert got == Rewrite(Destination("192.168.1.1", 3001))


def test_decide_exact_beats_wildcard_full_universe():
    # universe: 3 hosts x 2 ports, rules from the spec example
    rules = RuleSet(
        1,
        (
            Rule(MatchKey("*", 25), Block()),
            Rule(MatchKey("mail-host", 25), Rewrite(Destination("10.0.0.9", 25))),
        ),
    )
    for host in ("mail-host", "other", "third"):
        for port in (25, 80):
            assert decide(rules, Destination(host, port)) == oracle_decide(rules.rules, Destination(host, port))
    assert decide(rules, Destination("mail-host", 25)) == Rewrite(Destination("10.0.0.9", 25))
    assert decide(rules, Destination("other", 25)) == Block()
    assert decide(rules, Destination("other", 80)) == Pass()


def test_decide_deterministic_over_random_sets():
    rng = random.Random(21)
    hosts = ["a", "b", "c", "*"]
    for _ in range(100):
        keys = rng.sample([MatchKey(h, p) for h in hosts for p in (25, 80)], k=rng.randrange(0, 6))
        rules = RuleSet(
            0,
            tuple(
                Rule(k, Block() if rng.random() < 0.5 else Rewrite(Destination("10.0.0.1", 9)))
                for k in keys
            ),
        )
        for host in ("a", "b", "c", "zzz"):
            for port in (25, 80, 443):
                dst = Destination(host, port)
                first = decide(rules, dst)
                assert first == decide(rules, dst) == oracle_decide(rules.rules, dst)


# --- merge ---------------------------------------------------------------


W80 = MatchKey("w", 80)
A = Rewrite(Destination("10.0.0.1", 81))
B = Rewrite(Destination("10.0.0.2", 82))


def test_merge_empty_side_identity():
    merged = merge_rules([Rule(W80, A)], [], PriorityPolicy.USER)
    assert merged.rules == (Rule(W80, A),)
    merged = merge_rules([], [Rule(W80, B)], PriorityPolicy.CLIENT)
    assert merged.rules == (Rule(W80, B),)


def test_merge_user_priority_keeps_user_rule():
    merged = merge_rules([Rule(W80, A)], [Rule(W80, B)], PriorityPolicy.USER)
    assert merged.rules == (Rule(W80, A),)


def test_merge_policy_flip_swaps_survivor():
    user, client = [Rule(W80, A)], [Rule(W80, B)]
    kept_user = merge_rules(user, client, PriorityPolicy.USER).rules[0].action
    kept_client = merge_rules(user, client, PriorityPolicy.CLIENT).rules[0].action
    assert (kept_user, kept_client) == (A, B)


def test_merge_keeps_the_input_rules():
    user, client = [Rule(W80, A)], [Rule(W80, B), Rule(MatchKey("m", 25), Block())]
    merged = merge_rules(user, client, PriorityPolicy.CLIENT).rules
    assert merged[0] is client[0] and merged[1] is client[1]
    assert merge_rules(user, client, PriorityPolicy.USER).rules[0] is user[0]


def test_merge_identical_rules_collapse_regardless_of_policy():
    for policy in PriorityPolicy:
        merged = merge_rules([Rule(W80, A)], [Rule(W80, A)], policy)
        assert merged.rules == (Rule(W80, A),)


def test_merge_rejects_duplicate_keys_within_one_side():
    with pytest.raises(DuplicateMatchKey):
        merge_rules([Rule(W80, A), Rule(W80, B)], [], PriorityPolicy.USER)
    with pytest.raises(DuplicateMatchKey):
        merge_rules([], [Rule(W80, A), Rule(W80, B)], PriorityPolicy.USER)


def test_merge_rejects_a_client_side_repeating_a_key_the_user_side_holds():
    # the client-side copies of a key held by the user never reach the output
    for policy in PriorityPolicy:
        with pytest.raises(DuplicateMatchKey):
            merge_rules([Rule(W80, A)], [Rule(W80, A), Rule(W80, B)], policy)


def test_merge_fresh_version_stamp():
    assert merge_rules([], [], PriorityPolicy.USER, version=17).version == 17


def _ordered_lists(universe_rules, max_len):
    """Every ordered duplicate-free-key list up to max_len from the universe."""
    by_key = {}
    for rule in universe_rules:
        by_key.setdefault(rule.match, []).append(rule)
    lists = [()]
    for length in range(1, max_len + 1):
        for keys in itertools.permutations(by_key, length):
            for actions in itertools.product(*(by_key[k] for k in keys)):
                lists.append(actions)
    return lists


def test_merge_exhaustive_small_universe_equals_oracle():
    # 2 match keys x 2 actions, all ordered inputs up to 3 rules per side
    keys = [MatchKey("w", 80), MatchKey("m", 25)]
    universe = [Rule(k, a) for k in keys for a in (A, Block())]
    sides = _ordered_lists(universe, 3)
    for user_side in sides:
        for client_side in sides:
            for policy in PriorityPolicy:
                got = merge_rules(user_side, client_side, policy)
                assert got.rules == oracle_merge(user_side, client_side, policy)


def test_merge_output_always_unique_keys_random():
    rng = random.Random(99)
    keys = [MatchKey(h, p) for h in ("w", "m", "x") for p in (80, 25)]
    actions = [A, B, Block()]
    for _ in range(300):
        user_keys = rng.sample(keys, k=rng.randrange(0, len(keys)))
        client_keys = rng.sample(keys, k=rng.randrange(0, len(keys)))
        user_entries = [Rule(k, rng.choice(actions)) for k in user_keys]
        client_entries = [Rule(k, rng.choice(actions)) for k in client_keys]
        policy = rng.choice(list(PriorityPolicy))
        merged = merge_rules(user_entries, client_entries, policy)
        seen = [r.match for r in merged.rules]
        assert len(seen) == len(set(seen))
        assert merged.rules == oracle_merge(user_entries, client_entries, policy)


def test_ruleset_constructor_enforces_uniqueness():
    with pytest.raises(DuplicateMatchKey):
        RuleSet(0, (Rule(W80, A), Rule(W80, Block())))
    with pytest.raises(ValueError):
        RuleSet(-1, ())
