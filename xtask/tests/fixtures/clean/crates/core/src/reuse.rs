// Synthetic clean fixture: an `[[alone]]` lock taken alone, released
// before the banned call. Never compiled.

fn lookup_execute_insert(store: &Store, txn: &mut Txn, q: &Query) {
    let results = store.results.lock();
    drop(results);
    let rs = execute(txn, q);
    {
        let results = store.results.lock();
    }
    let re_executed = reexecute(txn, q);
}
