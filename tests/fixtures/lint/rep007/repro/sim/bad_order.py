"""REP007 positives: unordered iteration feeding order-sensitive sinks."""


def schedule_members(env, members):
    pending = set(members)
    for member in pending:  # set iteration: always order-dependent
        env.schedule(member)


def drain(env, waiting):
    for node, event in waiting.items():  # dict view + scheduling sink
        env.schedule(event)


def jitter_draws(rng, jitter_by_node):
    return [rng.random() for node in jitter_by_node.values()]  # RNG sink


def start_loops(env, steps_by_node):
    for node, step in steps_by_node.items():  # dict view + loop kickoff sink
        kickoff(env, step)
