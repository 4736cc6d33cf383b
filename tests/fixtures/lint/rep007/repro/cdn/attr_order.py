"""REP007 on instance attributes: a set attribute is flagged wherever the
class iterates it; a dict attribute keeps insertion order."""


class SetMembers:
    def __init__(self):
        self.members = set()

    def notify(self, env):
        for member in list(self.members):  # set attribute: hash order
            env.schedule(member)


class DictMembers:
    def __init__(self):
        self.members = {}

    def notify(self, env):
        for member in list(self.members):  # insertion order
            env.schedule(member)
