/* Native kernels behind repro.utils.native: the metadata cache drive,
 * the DRAM issue-order walk and its key column, and the cycle-sorted
 * block expansion.
 *
 * The drive replicates repro.utils.lru.LruCache (fully-associative,
 * write-back, write-allocate LRU) access-for-access, including the
 * exact event emission order of the scalar drives in
 * repro/protection/metadata_model.py:
 *
 *   - MAC discipline: miss fetch first, dirty-eviction writeback after;
 *   - VN discipline: dirty-eviction writeback first, then the fetch,
 *     then the integrity-tree ancestor walk up to the first cached
 *     node (or the on-chip root).
 *
 * The drive and the walk each merge a few cycle-sorted sides as they
 * go (ties to the lower side), so a layer's traffic classes are never
 * concatenated and sorted.
 *
 * The cache is a doubly linked LRU list over slot arrays plus an
 * open-addressing hash table (Fibonacci hashing, linear probing,
 * backward-shift delete); each slot keeps its table position, so an
 * eviction deletes without a lookup.
 * Every kernel has a pure numpy twin (the FALLBACKS manifest in
 * native.py) that serves hosts without a C compiler.
 */

#include <stdint.h>
#include <stdlib.h>

typedef int64_t i64;
typedef uint64_t u64;
typedef unsigned char u8;

typedef struct {
    i64 cap;            /* capacity in lines */
    i64 size;           /* resident lines */
    i64 *tag;           /* per slot */
    u8 *dirty;          /* per slot */
    i64 *prv, *nxt;     /* LRU list; head = LRU, tail = MRU */
    i64 head, tail;
    i64 *table;         /* hash slots -> entry slot index, -1 empty */
    i64 *pos;           /* per slot: its hash slot in table */
    u64 mask;
    int shift;          /* 64 - log2(table size) */
    i64 *freelist;
    i64 nfree;
    i64 hits, misses, evictions, dirty_evictions;
} Cache;

/* Fibonacci hashing: the top bits of tag * 2^64 / phi.  Tags of one
 * cache are mostly consecutive line numbers, which it spreads evenly. */
static u64 hash_tag(const Cache *c, i64 t) {
    return ((u64)t * 0x9e3779b97f4a7c15ULL) >> c->shift;
}

static int cache_init(Cache *c, i64 cap, i64 max_entries) {
    i64 n = cap < max_entries ? cap : max_entries;
    if (n < 1) n = 1;
    u64 tsize = 8;
    int bits = 3;
    while (tsize < (u64)(4 * n)) { tsize <<= 1; bits++; }
    c->cap = cap;
    c->size = 0;
    c->head = c->tail = -1;
    c->mask = tsize - 1;
    c->shift = 64 - bits;
    c->hits = c->misses = c->evictions = c->dirty_evictions = 0;
    c->tag = (i64 *)malloc(sizeof(i64) * n);
    c->dirty = (u8 *)malloc(n);
    c->prv = (i64 *)malloc(sizeof(i64) * n);
    c->nxt = (i64 *)malloc(sizeof(i64) * n);
    c->table = (i64 *)malloc(sizeof(i64) * tsize);
    c->pos = (i64 *)malloc(sizeof(i64) * n);
    c->freelist = (i64 *)malloc(sizeof(i64) * n);
    if (!c->tag || !c->dirty || !c->prv || !c->nxt || !c->table
            || !c->pos || !c->freelist)
        return -1;
    for (u64 i = 0; i < tsize; i++) c->table[i] = -1;
    for (i64 i = 0; i < n; i++) c->freelist[i] = n - 1 - i;
    c->nfree = n;
    return 0;
}

static void cache_free(Cache *c) {
    free(c->tag); free(c->dirty); free(c->prv); free(c->nxt);
    free(c->table); free(c->pos); free(c->freelist);
}

static i64 ht_find(const Cache *c, i64 t) {
    u64 i = hash_tag(c, t);
    for (;;) {
        i64 s = c->table[i];
        if (s < 0) return -1;
        if (c->tag[s] == t) return (i64)i;
        i = (i + 1) & c->mask;
    }
}

static void ht_insert(Cache *c, i64 t, i64 slot) {
    u64 i = hash_tag(c, t);
    while (c->table[i] >= 0) i = (i + 1) & c->mask;
    c->table[i] = slot;
    c->pos[slot] = (i64)i;
}

static void ht_delete(Cache *c, u64 i) {
    /* linear-probing backward-shift deletion */
    u64 j = i;
    for (;;) {
        c->table[i] = -1;
        for (;;) {
            j = (j + 1) & c->mask;
            i64 s = c->table[j];
            if (s < 0) return;
            u64 k = hash_tag(c, c->tag[s]);
            int movable = (i <= j) ? (k <= i || k > j) : (k <= i && k > j);
            if (movable) {
                c->table[i] = s;
                c->pos[s] = (i64)i;
                i = j;
                break;
            }
        }
    }
}

static void lru_unlink(Cache *c, i64 s) {
    if (c->prv[s] >= 0) c->nxt[c->prv[s]] = c->nxt[s];
    else c->head = c->nxt[s];
    if (c->nxt[s] >= 0) c->prv[c->nxt[s]] = c->prv[s];
    else c->tail = c->prv[s];
}

static void lru_push_mru(Cache *c, i64 s) {
    c->prv[s] = c->tail;
    c->nxt[s] = -1;
    if (c->tail >= 0) c->nxt[c->tail] = s;
    else c->head = s;
    c->tail = s;
}

/* Metadata lines are 64 B: a tag is its line's address / LINE_BYTES. */
#define LINE_BYTES 64

/* Access; returns 1 on hit.  On a dirty eviction *wb_addr is set to the
 * victim line address (tag * LINE_BYTES); caller pre-sets it to -1. */
static int cache_access(Cache *c, i64 t, int write, i64 *wb_addr) {
    i64 h = ht_find(c, t);
    if (h >= 0) {
        i64 s = c->table[h];
        c->hits++;
        lru_unlink(c, s);
        lru_push_mru(c, s);
        if (write) c->dirty[s] = 1;
        return 1;
    }
    c->misses++;
    if (c->size >= c->cap) {
        i64 v = c->head;
        c->evictions++;
        if (c->dirty[v]) {
            c->dirty_evictions++;
            *wb_addr = c->tag[v] * LINE_BYTES;
        }
        lru_unlink(c, v);
        ht_delete(c, (u64)c->pos[v]);
        c->freelist[c->nfree++] = v;
        c->size--;
    }
    i64 s = c->freelist[--c->nfree];
    c->tag[s] = t;
    c->dirty[s] = write ? 1 : 0;
    lru_push_mru(c, s);
    ht_insert(c, t, s);
    c->size++;
    return 0;
}

static void cache_load(Cache *c, const i64 *tags, const u8 *dirty, i64 m) {
    i64 wb = -1;
    for (i64 i = 0; i < m; i++)
        cache_access(c, tags[i], dirty[i] != 0, &wb);
    /* state reconstruction is not traffic */
    c->hits = c->misses = c->evictions = c->dirty_evictions = 0;
}

static i64 cache_dump(const Cache *c, i64 *tags, u8 *dirty) {
    i64 n = 0;
    for (i64 s = c->head; s >= 0; s = c->nxt[s]) {
        tags[n] = c->tag[s];
        dirty[n] = c->dirty[s];
        n++;
    }
    return n;
}

typedef struct {
    i64 *cyc; i64 *addr; u8 *wr;
    i64 n, capn;
} Events;

static int emit(Events *e, i64 cyc, i64 addr, int wr) {
    if (e->n >= e->capn) return -1;
    e->cyc[e->n] = cyc;
    e->addr[e->n] = addr;
    e->wr[e->n] = (u8)wr;
    e->n++;
    return 0;
}

/* Most integrity-tree levels a drive walks, so one access touches at
 * most DRIVE_MAX_LEVELS + 1 VN-cache lines. */
#define DRIVE_MAX_LEVELS 60

/* One fused drive: both caches, their event buffers, the VN tree's
 * layout and the lines the latest access touched (its MAC line, then
 * its VN line and every ancestor the walk visited). */
typedef struct {
    Cache mac, vn;
    int use_mac, use_vn;
    Events mev, vev;
    i64 mac_base, vn_base, n_levels;
    const i64 *node_base, *node_div;
    i64 t_mac, t_nvn, t_vn[DRIVE_MAX_LEVELS + 1];
} Drive;

/* One access of metadata line ``line``: the MAC lookup, then the VN
 * line and its tree ancestors up to the first hit.  Returns 0, or 1
 * when an event buffer overflowed. */
static int drive_access(Drive *d, i64 line, int wr, i64 cyc)
{
    i64 wb = -1;
    d->t_mac = d->use_mac ? d->mac_base + line : -1;
    d->t_nvn = 0;
    if (d->use_mac
            && !cache_access(&d->mac, d->mac_base + line, wr, &wb)
            && (emit(&d->mev, cyc, (d->mac_base + line) * LINE_BYTES, 0) < 0
                || (wb >= 0 && emit(&d->mev, cyc, wb, 1) < 0)))
        return 1;
    for (i64 l = d->use_vn ? -1 : d->n_levels; l < d->n_levels; l++) {
        i64 tag = l < 0 ? d->vn_base + line
            : d->node_base[l] + line / d->node_div[l];
        wb = -1;
        d->t_vn[d->t_nvn++] = tag;
        if (cache_access(&d->vn, tag, wr, &wb))
            break;
        if ((wb >= 0 && emit(&d->vev, cyc, wb, 1) < 0)
                || emit(&d->vev, cyc, tag * LINE_BYTES, 0) < 0)
            return 1;
    }
    return 0;
}

/* A write joined the latest access's line run after the access: dirty
 * every line the access touched, as if it had been a write.  Returns 1
 * when one of them is gone (the VN cache is too small to hold a whole
 * tree walk, so the walk evicted its own lines). */
static int drive_mark_dirty(Drive *d)
{
    if (d->t_mac >= 0) {
        i64 h = ht_find(&d->mac, d->t_mac);
        if (h < 0)
            return 1;
        d->mac.dirty[d->mac.table[h]] = 1;
    }
    for (i64 v = 0; v < d->t_nvn; v++) {
        i64 h = ht_find(&d->vn, d->t_vn[v]);
        if (h < 0)
            return 1;
        d->vn.dirty[d->vn.table[h]] = 1;
    }
    return 0;
}

/* Layout of a drive's carry, the line run left open by the previous
 * call: open flag, run key, write flag, MAC tag (-1: none), VN tag
 * count, then the VN tags. */
#define CARRY_OPEN 0
#define CARRY_KEY 1
#define CARRY_WR 2
#define CARRY_MAC 3
#define CARRY_NVN 4
#define CARRY_VN 5

/* Fused MAC + VN drive over the merge of two cycle-sorted block sides
 * (a layer's data and over-fetch blocks), keyed (cycle, side): side a
 * wins equal cycles.  The merged sequence is run-compressed as it is
 * walked, also across the side boundary: consecutive blocks with equal
 * key >> key_shift (logical) form one access, with their write flags
 * OR'd and the first block's cycle.
 *
 * The access's metadata line index is line = key >> key_shift; every
 * tag is a 64 B line (LINE_BYTES): MAC tag = mac_base + line, VN tag =
 * vn_base + line.  A non-positive mac_cap/vn_cap disables that cache
 * (the single-cache drives reuse this entry point).  The VN walk visits
 * levels 1..n_levels of the line's tree, with node tag
 * ``node_base[l-1] + line / node_div[l-1]``.
 *
 * carry (NULL: none) continues a line run across calls, so a layer
 * served in cycle windows is driven exactly as in one call.  On entry
 * it holds the run the previous window left open, already accessed at
 * its first block's cycle; blocks on its line join it, and a write
 * among them dirties the lines that access touched.  On return it holds
 * the run this call left open, whose access has been made.  The access
 * of a run cut by a window therefore happens in the window of its
 * first block, with the writes seen so far; that is exact while the
 * later writes find every touched line still cached.
 *
 * stats[0..3] / [4..7] receive the MAC / VN hits, misses, evictions
 * and dirty evictions, and stats[8] the run count, also after an
 * overflow (the walk then only counts), so the caller sizes its retry
 * in runs.  Returns 0 on success, 1 when an event buffer overflowed
 * (caller retries with larger buffers), 2 / 3 when side a's / side
 * b's cycles descend (no output is then valid), 4 when a carried run's
 * write found one of its lines evicted, -1 on allocation failure or
 * more than DRIVE_MAX_LEVELS tree levels.
 */
int drive_fused(
    const i64 *keys_a, const u8 *writes_a, const i64 *cycles_a, i64 na,
    const i64 *keys_b, const u8 *writes_b, const i64 *cycles_b, i64 nb,
    i64 key_shift,
    i64 mac_base, i64 mac_cap,
    const i64 *mac_init_tags, const u8 *mac_init_dirty, i64 mac_init_len,
    i64 vn_base, i64 vn_cap,
    const i64 *vn_init_tags, const u8 *vn_init_dirty, i64 vn_init_len,
    i64 n_levels, const i64 *node_base, const i64 *node_div,
    i64 *mac_ev_cyc, i64 *mac_ev_addr, u8 *mac_ev_wr, i64 mac_ev_cap,
    i64 *mac_ev_n,
    i64 *vn_ev_cyc, i64 *vn_ev_addr, u8 *vn_ev_wr, i64 vn_ev_cap,
    i64 *vn_ev_n,
    i64 *stats, i64 *carry,
    i64 *mac_state_tags, u8 *mac_state_dirty, i64 *mac_state_len,
    i64 *vn_state_tags, u8 *vn_state_dirty, i64 *vn_state_len)
{
    Drive d = {
        .use_mac = mac_cap > 0, .use_vn = vn_cap > 0,
        .mev = {mac_ev_cyc, mac_ev_addr, mac_ev_wr, 0, mac_ev_cap},
        .vev = {vn_ev_cyc, vn_ev_addr, vn_ev_wr, 0, vn_ev_cap},
        .mac_base = mac_base, .vn_base = vn_base, .n_levels = n_levels,
        .node_base = node_base, .node_div = node_div,
    };
    const i64 *keys[2] = {keys_a, keys_b};
    const u8 *writes[2] = {writes_a, writes_b};
    const i64 *cycles[2] = {cycles_a, cycles_b};
    i64 len[2] = {na, nb}, pos[2] = {0, 0};
    i64 last[2] = {INT64_MIN, INT64_MIN};
    i64 total = na + nb;
    int rc = 0;
    i64 runs = 0;
    u64 run_key = 0;
    int run_wr = 0;
    i64 run_cyc = 0;
    /* A run is open; it was accessed in an earlier call. */
    int open = 0, done = 0;

    if (n_levels < 0 || n_levels > DRIVE_MAX_LEVELS)
        return -1;
    d.t_mac = -1;
    d.t_nvn = 0;
    if (carry && carry[CARRY_OPEN]) {
        open = done = 1;
        run_key = (u64)carry[CARRY_KEY];
        run_wr = carry[CARRY_WR] != 0;
        d.t_mac = carry[CARRY_MAC];
        d.t_nvn = carry[CARRY_NVN];
        for (i64 v = 0; v < d.t_nvn; v++)
            d.t_vn[v] = carry[CARRY_VN + v];
    }
    if (d.use_mac) {
        if (cache_init(&d.mac, mac_cap, mac_init_len + total) < 0)
            return -1;
        cache_load(&d.mac, mac_init_tags, mac_init_dirty, mac_init_len);
    }
    if (d.use_vn) {
        if (cache_init(&d.vn, vn_cap,
                       vn_init_len + total * (n_levels + 1)) < 0) {
            if (d.use_mac) cache_free(&d.mac);
            return -1;
        }
        cache_load(&d.vn, vn_init_tags, vn_init_dirty, vn_init_len);
    }

    while (rc < 2 && (pos[0] < len[0] || pos[1] < len[1])) {
        /* The side holding the merge's next block runs up to the other
         * side's head: through its cycle for side a, below it for
         * side b. */
        int s = pos[0] < len[0]
            ? pos[1] < len[1] && cycles[1][pos[1]] < cycles[0][pos[0]]
            : 1;
        int o = 1 - s;
        /* Side b stops one cycle short of side a's head, which is
         * strictly above its own, so the limit cannot underflow. */
        i64 lim = pos[o] < len[o] ? cycles[o][pos[o]] - s : INT64_MAX;
        const i64 *cyc = cycles[s], *key = keys[s];
        const u8 *wr = writes[s];
        i64 i = pos[s], n = len[s], prev = last[s];
        for (; i < n; i++) {
            i64 c = cyc[i];
            if (c > lim)
                break;
            if (c < prev) {
                rc = 2 + s;
                break;
            }
            prev = c;
            u64 k = (u64)key[i] >> key_shift;
            if (open && k == run_key) {
                if (wr[i] && !run_wr) {
                    run_wr = 1;
                    if (done && rc == 0 && drive_mark_dirty(&d))
                        rc = 4;
                }
                continue;
            }
            if (open && !done && rc == 0)
                rc = drive_access(&d, (i64)run_key, run_wr, run_cyc);
            run_key = k;
            run_wr = wr[i] != 0;
            run_cyc = c;
            runs++;
            open = 1;
            done = 0;
        }
        pos[s] = i;
        last[s] = prev;
    }
    if (open && !done && rc == 0)
        rc = drive_access(&d, (i64)run_key, run_wr, run_cyc);
    if (carry && rc == 0) {
        carry[CARRY_OPEN] = open;
        carry[CARRY_KEY] = (i64)run_key;
        carry[CARRY_WR] = run_wr;
        carry[CARRY_MAC] = d.t_mac;
        carry[CARRY_NVN] = d.t_nvn;
        for (i64 v = 0; v < d.t_nvn; v++)
            carry[CARRY_VN + v] = d.t_vn[v];
    }

    stats[8] = runs;
    *mac_ev_n = d.mev.n;
    *vn_ev_n = d.vev.n;
    if (d.use_mac) {
        stats[0] = d.mac.hits; stats[1] = d.mac.misses;
        stats[2] = d.mac.evictions; stats[3] = d.mac.dirty_evictions;
        *mac_state_len = cache_dump(&d.mac, mac_state_tags,
                                    mac_state_dirty);
        cache_free(&d.mac);
    } else {
        stats[0] = stats[1] = stats[2] = stats[3] = 0;
        *mac_state_len = 0;
    }
    if (d.use_vn) {
        stats[4] = d.vn.hits; stats[5] = d.vn.misses;
        stats[6] = d.vn.evictions; stats[7] = d.vn.dirty_evictions;
        *vn_state_len = cache_dump(&d.vn, vn_state_tags, vn_state_dirty);
        cache_free(&d.vn);
    } else {
        stats[4] = stats[5] = stats[6] = stats[7] = 0;
        *vn_state_len = 0;
    }
    return rc;
}

/* ---- DRAM model --------------------------------------------------- */

/* Under power-of-two mapping, a block's packed DRAM key is its row
 * shifted above its global bank (channel << bank_shift | bank), which
 * takes channel_shift + bank_shift bits.  The row is the address
 * arithmetic-shifted right by more bits than the shift left puts back,
 * so the packing loses nothing: key >> gb_bits is the row again. */
#define DRAM_KEY(addr)                                                   \
    ((i64)(((u64)((addr) >> (block_shift + channel_shift + col_shift     \
                             + bank_shift)) << gb_bits)                  \
           | (u64)(((((addr) >> block_shift) & ch_mask) << bank_shift)   \
                   | ((((addr) >> (block_shift + channel_shift))         \
                       >> col_shift) & bank_mask))))

/* Channels whose request tallies dram_keys keeps in registers. */
#define DRAM_TALLIES 8

/* Packed DRAM keys of n block addresses (see DRAM_KEY), behind
 * DramSim's key column: the walk reads them in place of addresses, so
 * a side walked under several schemes is decomposed once.  requests[]
 * receives the side's per-channel request counts, which every walk of
 * it adds instead of counting block by block: up to DRAM_TALLIES
 * channels count in tallies the compiler keeps in vector registers,
 * more count through memory.  Returns 1 when the blocks' cycles ascend
 * (the walk may then run the side without reading them), 0 otherwise. */
int dram_keys(const i64 *addrs, const i64 *cycles, i64 n, i64 block_shift,
              i64 channel_shift, i64 col_shift, i64 bank_shift, i64 *keys,
              i64 *requests)
{
    i64 gb_bits = channel_shift + bank_shift;
    i64 ch_mask = ((i64)1 << channel_shift) - 1;
    i64 bank_mask = ((i64)1 << bank_shift) - 1;
    i64 tally[DRAM_TALLIES] = {0};
    int ascending = 1;
    for (i64 i = 0; i < n; i++) {
        i64 ch = (addrs[i] >> block_shift) & ch_mask;
        keys[i] = DRAM_KEY(addrs[i]);
        ascending &= i == 0 || cycles[i] >= cycles[i - 1];
        for (i64 c = 0; c < DRAM_TALLIES; c++)
            tally[c] += ch == c;
    }
    for (i64 c = 0; c <= ch_mask; c++)
        requests[c] = c < DRAM_TALLIES ? tally[c] : 0;
    if (ch_mask >= DRAM_TALLIES)
        for (i64 i = 0; i < n; i++) {
            i64 ch = (addrs[i] >> block_shift) & ch_mask;
            requests[ch] += ch >= DRAM_TALLIES;
        }
    return ascending;
}

/* Serve one packed key: a row conflict when its bank's open row
 * differs, and count (1, or 0 for a packed side, whose requests come
 * from its key column) requests on its channel. */
#define DRAM_STEP(key, count)                                            \
    do {                                                                 \
        i64 key_ = (key);                                                \
        i64 gb_ = key_ & gb_mask;                                        \
        i64 row_ = key_ >> gb_bits;                                      \
        i64 ch_ = gb_ >> bank_shift;                                     \
        requests[ch_] += (count);                                        \
        conflicts[ch_] += open_row[gb_] != row_;                         \
        open_row[gb_] = row_;                                            \
    } while (0)

/* Run side s from block i while its cycles stay within lim, serving
 * each block's key KEY(col[i]) and counting COUNT requests for it;
 * leaves i at the first block past lim, or leaves the walk through
 * descent when a cycle descends. */
#define DRAM_RUN(KEY, COUNT)                                             \
    for (; i < n; i++) {                                                 \
        i64 ci = cyc[i];                                                 \
        if (ci > lim)                                                    \
            break;                                                       \
        if (ci < prev)                                                   \
            goto descent;                                                \
        prev = ci;                                                       \
        DRAM_STEP(KEY(col[i]), COUNT);                                   \
    }

#define DRAM_PACKED(key) (key)

/* Most sides one walk merges: a layer's data and over-fetch blocks,
 * then its MAC and VN traffic. */
#define DRAM_MAX_SIDES 4

/* Side flags: the column holds packed keys (dram_keys), not block
 * addresses, and the side comes with its per-channel request counts;
 * the side's cycles are known to ascend. */
#define DRAM_SIDE_PACKED 1
#define DRAM_SIDE_ASCENDING 2

/* Issue-order walk behind DramSim._walk: merges k cycle-sorted sides
 * (side s: lens[s] blocks, issued at cycles[s]) keyed (cycle, side
 * index), so a lower side wins equal cycles, as in the sides'
 * concatenated stream.  Side s's column cols[s] holds packed keys or
 * block addresses, as flags[s] says; a packed side's per-channel
 * request counts are side_requests[s] (dram_keys).  It keeps one
 * open-row register per global bank and counts requests and row
 * conflicts per channel.
 *
 * regs[] receives this walk's channels request counts, then channels
 * conflict counts; after them sit the channels << bank_shift open-row
 * registers, which the walk starts from and leaves for the next one, so
 * a layer walked window by window counts exactly as in one walk (a row
 * is an address shifted right by at least the block shift, so with
 * blocks of 2 B or more no row equals the INT64_MIN "closed" mark the
 * caller starts a cold memory system with), then as many registers the
 * walk saves the open rows to on entry.
 *
 * The merge keeps every side's next cycle in head[], padded to
 * DRAM_MAX_SIDES with spent sides at INT64_MAX: the side to run is the
 * first with the least head, and it runs through the last cycle that
 * still precedes every other live head (that head's cycle for a higher
 * side, one less for a lower one, which then is strictly above the
 * running side's head, so it cannot underflow).  Both are branch-free
 * minima over the four heads, so a switch between sides costs a few
 * compares, not a re-sort.  A side known to ascend whose last cycle is
 * within that bound runs to its end without reading its cycles: a lone
 * side, or the data side after a layer-MAC scheme's last event.
 * Returns 0; s + 1 when side s's cycles descend, after putting the
 * saved open rows back (the counts are then partial); or -1 when k
 * exceeds DRAM_MAX_SIDES. */
int dram_walk(const i64 *const *cols, const i64 *const *cycles,
              const i64 *lens, const i64 *flags,
              const i64 *const *side_requests, i64 k,
              i64 block_shift, i64 channel_shift, i64 col_shift,
              i64 bank_shift, i64 *regs)
{
    i64 channels = (i64)1 << channel_shift;
    i64 banks = channels << bank_shift;
    i64 *requests = regs, *conflicts = regs + channels;
    i64 *open_row = regs + 2 * channels, *saved = open_row + banks;
    i64 gb_bits = channel_shift + bank_shift;
    i64 gb_mask = banks - 1;
    i64 ch_mask = channels - 1;
    i64 bank_mask = ((i64)1 << bank_shift) - 1;
    /* Per side: next block, block count, last cycle seen, next cycle. */
    i64 pos[DRAM_MAX_SIDES], len[DRAM_MAX_SIDES];
    i64 last[DRAM_MAX_SIDES], head[DRAM_MAX_SIDES];
    i64 s = 0, blocks = 0;
    if (k < 0 || k > DRAM_MAX_SIDES)
        return -1;
    for (i64 c = 0; c < 2 * channels; c++)
        regs[c] = 0;
    for (i64 b = 0; b < banks; b++)
        saved[b] = open_row[b];
    for (i64 r = 0; r < DRAM_MAX_SIDES; r++) {
        pos[r] = 0;
        len[r] = r < k && lens[r] > 0 ? lens[r] : 0;
        last[r] = INT64_MIN;
        head[r] = len[r] ? cycles[r][0] : INT64_MAX;
        blocks += len[r];
    }
    while (blocks > 0) {
        /* The least (head, side): lower sides win ties. */
        i64 a = head[1] < head[0], b = 2 + (head[3] < head[2]);
        s = head[b] < head[a] ? b : a;
        if (pos[s] >= len[s]) {
            /* A spent side tied a live one at INT64_MAX. */
            for (s = 0; pos[s] >= len[s]; s++)
                ;
        }
        i64 lim = INT64_MAX;
        for (i64 r = 0; r < DRAM_MAX_SIDES; r++) {
            i64 bound = r == s || pos[r] >= len[r] ? INT64_MAX
                : head[r] - (r < s);
            lim = bound < lim ? bound : lim;
        }
        const i64 *cyc = cycles[s], *col = cols[s];
        i64 i = pos[s], n = len[s], prev = last[s];
        if ((flags[s] & DRAM_SIDE_ASCENDING) && cyc[n - 1] <= lim) {
            if (flags[s] & DRAM_SIDE_PACKED)
                for (; i < n; i++)
                    DRAM_STEP(col[i], 0);
            else
                for (; i < n; i++)
                    DRAM_STEP(DRAM_KEY(col[i]), 1);
            prev = cyc[n - 1];
        } else if (flags[s] & DRAM_SIDE_PACKED) {
            DRAM_RUN(DRAM_PACKED, 0)
        } else {
            DRAM_RUN(DRAM_KEY, 1)
        }
        blocks -= i - pos[s];
        pos[s] = i;
        last[s] = prev;
        head[s] = i < n ? cyc[i] : INT64_MAX;
    }
    for (i64 r = 0; r < k; r++)
        if (len[r] && (flags[r] & DRAM_SIDE_PACKED))
            for (i64 c = 0; c < channels; c++)
                requests[c] += side_requests[r][c];
    return 0;
descent:
    for (i64 b = 0; b < banks; b++)
        open_row[b] = saved[b];
    return (int)s + 1;
}

#undef DRAM_TALLIES
#undef DRAM_SIDE_ASCENDING
#undef DRAM_SIDE_PACKED
#undef DRAM_PACKED
#undef DRAM_RUN
#undef DRAM_STEP
#undef DRAM_KEY

/* ---- Block expansion ---------------------------------------------- */

/* Heap order of two ranges: earlier next-block cycle first, then lower
 * range index (the stable sort's tie order). */
#define MERGE_BEFORE(ca, ra, cb, rb) ((ca) < (cb) || ((ca) == (cb) && (ra) < (rb)))

/* Restore the min-heap below slot i (heap_r: range index, heap_c: its
 * next block's cycle). */
static void merge_sift_down(i64 *heap_r, i64 *heap_c, i64 size, i64 i)
{
    i64 r = heap_r[i], c = heap_c[i];
    for (;;) {
        i64 child = 2 * i + 1;
        if (child >= size)
            break;
        if (child + 1 < size && MERGE_BEFORE(heap_c[child + 1],
                heap_r[child + 1], heap_c[child], heap_r[child]))
            child++;
        if (!MERGE_BEFORE(heap_c[child], heap_r[child], c, r))
            break;
        heap_r[i] = heap_r[child];
        heap_c[i] = heap_c[child];
        i = child;
    }
    heap_r[i] = r;
    heap_c[i] = c;
}

/* Bound on a range's count * duration and start cycle below which no
 * block cycle overflows an int64. */
#define EXPAND_SAFE ((i64)1 << 62)

/* Start the cursor expand_merge advances over n ranges: check that no
 * range's block arithmetic can overflow (counts[r] and durations[r]
 * non-negative, cycles[r] at most EXPAND_SAFE, counts[r] * durations[r]
 * within it), then build the min-heap of the ranges with blocks and
 * zero next[].  Returns the blocks the ranges cover, or -1 when a range
 * fails the check (the caller then expands with the numpy twin). */
i64 expand_start(const i64 *cycles, const i64 *counts, const i64 *durations,
                 i64 n, i64 *heap_r, i64 *heap_c, i64 *next, i64 *heap_size)
{
    i64 total = 0, size = 0;
    for (i64 r = 0; r < n; r++) {
        i64 count = counts[r], dur = durations[r];
        if (count < 0 || dur < 0 || cycles[r] > EXPAND_SAFE
                || dur > EXPAND_SAFE / (count > 1 ? count : 1))
            return -1;
        total += count;
        next[r] = 0;
        if (count > 0) {
            heap_r[size] = r;
            heap_c[size] = cycles[r];
            size++;
        }
    }
    for (i64 i = size / 2 - 1; i >= 0; i--)
        merge_sift_down(heap_r, heap_c, size, i);
    *heap_size = size;
    return total;
}

/* Resumable cycle-sorted block expansion of n ranges, behind
 * repro.accel.trace.ExpandCursor.  Range r covers the blocks
 * first[r] + block_bytes * j (j < counts[r]), issued at
 * cycles[r] + (j * durations[r]) / counts[r]: non-decreasing in j, so
 * every range is an ascending run and a k-way merge of the runs keyed
 * (cycle, range index) yields exactly the stable cycle sort of the
 * range-order expansion.  The minimum range emits blocks while they
 * stay ahead of its heap children, so a long sequential run costs no
 * heap operations.
 *
 * The merge is a cursor the caller owns, started by expand_start:
 * heap_r / heap_c (n each) hold the heap of ranges and their next
 * block's cycle, next[r] the blocks range r has emitted, and *heap_size
 * the heap's size.  A call emits the merge's next blocks while their
 * cycle is below stop, at most cap of them, and returns how many;
 * heap_c[0] is then the next block's cycle (when *heap_size > 0). */
i64 expand_merge(const i64 *cycles, const i64 *first, const i64 *counts,
                 const i64 *durations, const u8 *writes,
                 const int8_t *kinds, const int32_t *layer_ids, i64 n,
                 i64 block_bytes, i64 *heap_r, i64 *heap_c, i64 *next,
                 i64 *heap_size, i64 stop, i64 cap,
                 i64 *out_cycles, i64 *out_addrs, u8 *out_writes,
                 int8_t *out_kinds, int32_t *out_layer_ids)
{
    i64 size = *heap_size;
    i64 k = 0;
    while (size > 0 && k < cap && heap_c[0] < stop) {
        i64 r = heap_r[0];
        /* The heap children hold the next-smallest key. */
        i64 lim_r = -1, lim_c = 0;
        if (size > 1) {
            i64 child = 1;
            if (size > 2 && MERGE_BEFORE(heap_c[2], heap_r[2],
                                         heap_c[1], heap_r[1]))
                child = 2;
            lim_r = heap_r[child];
            lim_c = heap_c[child];
        }
        i64 count = counts[r], dur = durations[r], base = cycles[r];
        i64 j = next[r];
        /* offset = (j * dur) / count, advanced without a division per
         * block: q + rem / count tracks j * dur / count exactly. */
        i64 q = (j * dur) / count, rem = (j * dur) % count;
        i64 step_q = dur / count, step_r = dur % count;
        i64 addr = first[r] + j * block_bytes;
        u8 wr = writes[r];
        int8_t kind = kinds[r];
        int32_t layer = layer_ids[r];
        for (; j < count && k < cap; j++) {
            i64 cyc = base + q;
            if (cyc >= stop
                    || (lim_r >= 0 && !MERGE_BEFORE(cyc, r, lim_c, lim_r)))
                break;
            out_cycles[k] = cyc;
            out_addrs[k] = addr;
            out_writes[k] = wr;
            out_kinds[k] = kind;
            out_layer_ids[k] = layer;
            k++;
            addr += block_bytes;
            q += step_q;
            rem += step_r;
            if (rem >= count) {
                rem -= count;
                q++;
            }
        }
        next[r] = j;
        if (j < count) {
            heap_c[0] = base + q;
        } else {
            size--;
            heap_r[0] = heap_r[size];
            heap_c[0] = heap_c[size];
        }
        merge_sift_down(heap_r, heap_c, size, 0);
    }
    *heap_size = size;
    return k;
}

#undef EXPAND_SAFE
#undef MERGE_BEFORE
