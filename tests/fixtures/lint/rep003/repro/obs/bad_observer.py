"""REP003 positive fixture: an observer that schedules and draws RNG."""

from repro.sim.process import kickoff


class MeddlingTracer:
    enabled = True

    def emit(self, env, stream, kind, node):
        env.schedule(env.event())
        env.timeout(1.0)
        env.schedule_at(env.event(), 5.0)
        kickoff(env, self.emit)
        env.timers.arm(1.0, env.event())
        return stream.random()
