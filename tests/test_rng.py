from sumsetlab.rng import SplitMix64


def _list_shuffle_subset(rng, width, size):
    """The partial Fisher-Yates draw over an explicit list of 0..width-1."""
    pool = list(range(width))
    bits = 0
    for i in range(size):
        j = i + rng.below(width - i)
        pool[i], pool[j] = pool[j], pool[i]
        bits |= 1 << pool[i]
    return bits


def test_subset_of_size_matches_the_list_shuffle():
    meta = SplitMix64(2024)
    for _ in range(500):
        seed = meta.next_u64()
        width = 1 + meta.below(200)
        size = meta.below(width + 1)
        fast, slow = SplitMix64(seed), SplitMix64(seed)
        for _ in range(3):
            drawn = fast.subset_of_size(width, size)
            assert drawn == _list_shuffle_subset(slow, width, size)
            assert drawn.bit_count() == size
        # both consumed the same words of the stream
        assert fast.next_u64() == slow.next_u64()


def test_block_words_are_the_scalar_words():
    for seed in (0, -1, 2**64 - 1, 2**70 + 5):
        for count in (1, 2, 1000):
            block, scalar = SplitMix64(seed), SplitMix64(seed)
            words = block.words(count)
            assert words.dtype == "uint64" and words.shape == (count,)
            assert words.tolist() == [scalar.next_u64() for _ in range(count)]
            # both left the stream at the same place
            assert block.next_u64() == scalar.next_u64()


def test_jump_moves_the_stream_both_ways():
    ahead, step = SplitMix64(9), SplitMix64(9)
    ahead.jump(5)
    for _ in range(5):
        step.next_u64()
    assert ahead.next_u64() == step.next_u64()
    ahead.jump(-3)
    assert ahead.words(3).tolist() == SplitMix64(9).words(6)[3:].tolist()
