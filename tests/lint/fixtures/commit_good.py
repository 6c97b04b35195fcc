"""Fixture: correct durability orderings the rule must accept."""


class Store:
    def save(self, key, payload):
        self.device.write(key, payload)
        self.journal.append({"op": "chunk", "key": key})

    def save_loop(self, keys, payloads):
        for key, payload in zip(keys, payloads):
            self.device.write(key, payload)
        self.journal.append({"op": "seal", "keys": list(keys)})

    def save_try(self, key, payload):
        self.device.write(key, payload)
        try:
            self.journal.append({"op": "chunk", "key": key})
        except OSError:
            self.journal.append({"op": "chunk", "key": key, "retry": True})

    def save_nested(self, key, payload):
        def flush(chunk):
            self.device.write(key, chunk)
            self.journal.append({"op": "chunk", "key": key})

        flush(payload)

    def refill(self, key, partial_key, payload):
        self.device.write(key, payload)
        self.journal.append({"op": "chunk", "key": key})
        if self.partial:
            self.device.delete(partial_key)

    def seal_all(self, keys, payloads):
        written = []
        try:
            for key, payload in zip(keys, payloads):
                self.device.write(key, payload)
                written.append(key)
        except OSError:
            # A cleanup path that re-raises reaches no record.
            for key in written:
                self.device.delete(key)
            raise
        self.journal.append({"op": "seal", "keys": written})

    def free(self, context_id):
        self.journal.append({"op": "free", "context_id": context_id})
        self.device.delete(context_id)

    def register(self, context_id):
        # Metadata-only records carry no payload-ordering obligation.
        self.journal.append({"op": "register", "context_id": context_id})
